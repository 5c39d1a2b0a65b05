//! Micro-benchmarks of the framework's building blocks: TED selection,
//! BTED initialization, GBT fitting, bootstrap selection, simulated
//! annealing and single measurements — the per-iteration costs that
//! determine how "scalable" (the paper's term) each stage is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use active_learning::bs::bootstrap_select;
use active_learning::bted::{bted, BtedOptions};
use active_learning::evaluator::GbtEvaluator;
use active_learning::sa::{simulated_annealing, SaOptions};
use active_learning::ted::{ted, TedKernel};
use active_learning::TuneOptions;
use dnn_graph::{models, task::extract_tasks};
use gbt::{BaggedGbt, Gbt, GbtParams, Matrix};
use gpu_sim::{GpuDevice, Measurer, SimMeasurer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use schedule::feature::features;
use schedule::template::space_for_task;

fn bench_components(c: &mut Criterion) {
    let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
    let space = space_for_task(&task);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    // TED over the paper's batch size (M=500 candidates -> m=64).
    let candidates = space.sample_distinct(&mut rng, 500);
    let feats: Vec<Vec<f64>> = candidates.iter().map(|cfg| features(&space, cfg)).collect();
    c.bench_function("ted_500_to_64", |b| {
        b.iter(|| black_box(ted(&feats, 0.1, 64, TedKernel::Euclidean)));
    });

    // Full BTED at paper scale (B=10 batches of M=500).
    c.bench_function("bted_paper_scale", |b| {
        b.iter(|| black_box(bted(&space, &BtedOptions::default(), 3)));
    });

    // GBT fit at a typical mid-tuning dataset size.
    let rows: Vec<Vec<f64>> =
        space.sample_distinct(&mut rng, 512).iter().map(|cfg| features(&space, cfg)).collect();
    let ys: Vec<f64> = (0..rows.len()).map(|i| (i % 97) as f64).collect();
    let x = Matrix::from_rows(&rows);
    for n_rounds in [30usize, 60] {
        c.bench_with_input(BenchmarkId::new("gbt_fit_512x22", n_rounds), &n_rounds, |b, &n| {
            let p = GbtParams { n_rounds: n, ..GbtParams::default() };
            b.iter(|| black_box(Gbt::fit(&p, &x, &ys, 0)));
        });
    }

    // Scoring with the fitted AutoTVM model: one batch call over the
    // matrix (what SA and BS do) against a `predict_row` per row.
    let model = Gbt::fit(&GbtParams::default(), &x, &ys, 0);
    c.bench_function("gbt_predict_batch_512x22", |b| {
        b.iter(|| black_box(model.predict(&x)));
    });
    c.bench_function("gbt_predict_rows_512x22", |b| {
        b.iter(|| {
            black_box((0..x.rows()).map(|i| model.predict_row(x.row(i))).collect::<Vec<_>>())
        });
    });

    // BAO's surrogate fit: a Γ=2 bag at the tuner's `bao_gbt` params, each
    // member on a bootstrap resample, at the mean fit size of a 512-trial
    // run (167 rows) and at a full fit window (416 rows). Labels are
    // simulated GFLOPS of the valid configurations, as BAO fits them. Its
    // own RNG leaves the inputs of the other benchmarks as they were.
    let mut bao_rng = ChaCha8Rng::seed_from_u64(13);
    let bao_gbt = TuneOptions::default().bao_gbt;
    let measured_rows: Vec<(Vec<f64>, f64)> = space
        .sample_distinct(&mut bao_rng, 4096)
        .iter()
        .map(|cfg| (features(&space, cfg), measurer.measure(&task, &space, cfg).gflops))
        .filter(|(_, y)| *y > 0.0)
        .collect();
    for n in [167usize, 416] {
        let x = Matrix::from_rows(&measured_rows[..n].iter().map(|(r, _)| r).collect::<Vec<_>>());
        let ys: Vec<f64> = measured_rows[..n].iter().map(|(_, y)| *y).collect();
        c.bench_with_input(BenchmarkId::new("bao_bagged_fit_gamma2", n), &n, |b, _| {
            b.iter(|| black_box(BaggedGbt::fit(&bao_gbt, &x, &ys, 2, 5)));
        });
    }

    // Featurizing one BAO step's worth of configurations (a 512-member
    // scope) on the first mobilenet_v1 space.
    let scope_cfgs = space.sample_distinct(&mut bao_rng, 512);
    c.bench_function("features_mobilenet_512", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            for cfg in &scope_cfgs {
                buf.extend(features(&space, cfg));
            }
            black_box(buf)
        });
    });

    // One BS step (Algorithm 3) at the default scope size.
    let measured: Vec<(schedule::Config, f64)> = space
        .sample_distinct(&mut rng, 128)
        .into_iter()
        .enumerate()
        .map(|(i, cfg)| (cfg, (i % 31) as f64))
        .collect();
    let scope = space.sample_distinct(&mut rng, 384);
    c.bench_function("bs_step_gamma2", |b| {
        b.iter(|| {
            black_box(bootstrap_select(&space, &measured, &scope, 2, GbtEvaluator::default, 9))
        });
    });

    // One SA planning pass (AutoTVM's per-refit cost).
    c.bench_function("sa_plan_64", |b| {
        b.iter(|| {
            let plan = simulated_annealing(
                &space,
                |cands| cands.iter().map(|cfg| cfg.index as f64).collect(),
                &SaOptions::default(),
                64,
                &std::collections::BTreeSet::new(),
                11,
            );
            black_box(plan.len())
        });
    });

    // One simulated on-chip measurement.
    let cfg = space.sample(&mut rng);
    c.bench_function("measure_one_config", |b| {
        b.iter(|| black_box(measurer.measure(&task, &space, &cfg)));
    });
}

criterion_group!(benches, bench_components);
criterion_main!(benches);

//! Cross-version pins of trial logs.
//!
//! `fixtures/mobilenet_v1_t0_bted_bao_seed0_n160.jsonl` holds the bytes of
//!
//! ```text
//! aaltune tune mobilenet_v1 --task 0 --method bted+bao --seed 0 --n-trial 160 --log FILE
//! ```
//!
//! written before the BAO step and BTED's TED passes were reworked for
//! speed. 160 trials run 96 BAO steps past the 64 BTED initial points, so
//! the pin covers BTED's picks, the scope sampler's RNG stream, the
//! bootstrap fits and the bagged scores.
//!
//! `fixtures/mobilenet_v1_t0_autotvm_seed0_n256.jsonl` holds the bytes of
//!
//! ```text
//! aaltune tune mobilenet_v1 --task 0 --method autotvm --seed 0 --n-trial 256 --log FILE
//! ```
//!
//! written before simulated annealing scored its proposals through the
//! compiled leaf tables. 256 trials refit the cost model and re-run SA many
//! times past the random initial points, so the pin covers the SA walk, its
//! model scores and the ε-greedy plan.
//!
//! Any change to these bytes is a change to the tuner's output.

use aaltune::active_learning::{tune_task, Method, TuneOptions};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{GpuDevice, SimMeasurer};

/// Tunes mobilenet_v1 task 0 with the CLI's options for `--n-trial
/// n_trial --seed 0` and checks the log against the pinned bytes.
fn assert_log_matches(method: Method, n_trial: usize, want: &[u8]) {
    let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    let opts = TuneOptions::paper(n_trial, 0);
    let result = tune_task(&task, &measurer, method, &opts);
    let mut got = Vec::new();
    result.log.write_jsonl(&mut got).expect("writing to a Vec cannot fail");
    if let Some(line) =
        got.split(|&b| b == b'\n').zip(want.split(|&b| b == b'\n')).position(|(g, w)| g != w)
    {
        panic!("trial log differs from the pin at line {}", line + 1);
    }
    assert_eq!(got.len(), want.len(), "the log is a prefix of the pin, or the pin of the log");
}

#[test]
fn bted_bao_log_matches_the_committed_bytes() {
    assert_log_matches(
        Method::BtedBao,
        160,
        include_bytes!("fixtures/mobilenet_v1_t0_bted_bao_seed0_n160.jsonl"),
    );
}

#[test]
fn autotvm_log_matches_the_committed_bytes() {
    assert_log_matches(
        Method::AutoTvm,
        256,
        include_bytes!("fixtures/mobilenet_v1_t0_autotvm_seed0_n256.jsonl"),
    );
}

//! Cross-version pin of a BTED+BAO trial log.
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
//! bootstrap fits and the bagged scores. Any change to these bytes is a
//! change to the tuner's output.

use aaltune::active_learning::{tune_task, Method, TuneOptions};
use aaltune::dnn_graph::{models, task::extract_tasks};
use aaltune::gpu_sim::{GpuDevice, SimMeasurer};

#[test]
fn bted_bao_log_matches_the_committed_bytes() {
    let task = extract_tasks(&models::mobilenet_v1(1)).remove(0);
    let measurer = SimMeasurer::new(GpuDevice::gtx_1080_ti());
    // The CLI's options for `--n-trial 160 --seed 0`.
    let opts = TuneOptions { n_trial: 160, early_stopping: 160, seed: 0, ..TuneOptions::default() };
    let result = tune_task(&task, &measurer, Method::BtedBao, &opts);
    let mut got = Vec::new();
    result.log.write_jsonl(&mut got).expect("writing to a Vec cannot fail");
    let want: &[u8] = include_bytes!("fixtures/mobilenet_v1_t0_bted_bao_seed0_n160.jsonl");
    if let Some(line) =
        got.split(|&b| b == b'\n').zip(want.split(|&b| b == b'\n')).position(|(g, w)| g != w)
    {
        panic!("trial log differs from the pin at line {}", line + 1);
    }
    assert_eq!(got.len(), want.len(), "the log is a prefix of the pin, or the pin of the log");
}

//! Name resolution for models, methods, and devices — the one set of
//! accepted spellings shared by the command line and the job API.

use crate::task_tuning::Method;
use dnn_graph::{models, Graph};
use gpu_sim::GpuDevice;

/// Resolves a model name.
///
/// # Errors
///
/// Returns an error listing the valid names.
pub fn model_by_name(name: &str) -> Result<Graph, String> {
    match name {
        "alexnet" => Ok(models::alexnet(1)),
        "resnet18" => Ok(models::resnet18(1)),
        "resnet34" => Ok(models::resnet34(1)),
        "vgg16" => Ok(models::vgg16(1)),
        "vgg19" => Ok(models::vgg19(1)),
        "mobilenet_v1" | "mobilenet" => Ok(models::mobilenet_v1(1)),
        "squeezenet_v1.1" | "squeezenet" => Ok(models::squeezenet_v1_1(1)),
        other => Err(format!(
            "unknown model `{other}` (alexnet, resnet18, resnet34, vgg16, vgg19, \
             mobilenet_v1, squeezenet_v1.1)"
        )),
    }
}

/// Resolves a method label.
///
/// # Errors
///
/// Returns an error listing the valid labels.
pub fn method_by_name(name: &str) -> Result<Method, String> {
    match name {
        "random" => Ok(Method::Random),
        "autotvm" => Ok(Method::AutoTvm),
        "bted" => Ok(Method::Bted),
        "bted+bao" | "bao" | "ours" => Ok(Method::BtedBao),
        other => Err(format!("unknown method `{other}` (random, autotvm, bted, bted+bao)")),
    }
}

/// Resolves a device preset.
///
/// # Errors
///
/// Returns an error listing the valid names.
pub fn device_by_name(name: &str) -> Result<GpuDevice, String> {
    match name {
        "gtx1080ti" | "1080ti" => Ok(GpuDevice::gtx_1080_ti()),
        "v100" => Ok(GpuDevice::tesla_v100()),
        "jetson" | "tx2" => Ok(GpuDevice::jetson_tx2()),
        other => Err(format!("unknown device `{other}` (gtx1080ti, v100, jetson)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolvers_accept_aliases() {
        assert!(model_by_name("mobilenet").is_ok());
        assert!(model_by_name("resnet34").is_ok());
        assert!(model_by_name("vgg19").is_ok());
        assert!(model_by_name("nope").is_err());
        assert_eq!(method_by_name("ours").unwrap(), Method::BtedBao);
        assert!(method_by_name("rl").is_err());
        assert_eq!(device_by_name("v100").unwrap().name, "Tesla V100");
        assert!(device_by_name("tpu").is_err());
    }
}

//! The server's model registry and the shared prepared-template cache.

use aq2pnn::prepared::PreparedTemplate;
use aq2pnn::{ProtocolConfig, ProtocolError};
use aq2pnn_nn::quant::QuantModel;
use aq2pnn_parallel::sync::Mutex;
use aq2pnn_sharing::PartyId;
use std::collections::HashMap;
use std::sync::Arc;

/// Models the provider is willing to serve, by public name.
#[derive(Default)]
pub struct ModelRegistry {
    models: HashMap<String, Arc<QuantModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers `model` under `name`, replacing any previous entry.
    pub fn insert(&mut self, name: impl Into<String>, model: QuantModel) {
        self.models.insert(name.into(), Arc::new(model));
    }

    /// Looks a model up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<QuantModel>> {
        self.models.get(name).cloned()
    }

    /// Registered model names, sorted (diagnostics).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.models.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Cache of channel-free [`PreparedTemplate`]s keyed by
/// `(model name, ℓ-profile)`. The expensive offline derivation (weight
/// shares, GEMM layouts, pool geometry) is paid once per key and shared
/// across every concurrent session; each session then runs only the cheap
/// interactive `bind` step.
///
/// Lock class `server.templates` (leaf): held only around the `HashMap`
/// probe/insert — never across the template build itself, so two sessions
/// may race to build the same key and the loser's work is discarded
/// (benign, bounded by the number of distinct keys).
pub struct TemplateCache {
    entries: Mutex<HashMap<(String, u32), Arc<PreparedTemplate>>>,
}

impl Default for TemplateCache {
    fn default() -> Self {
        TemplateCache::new()
    }
}

impl TemplateCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> TemplateCache {
        TemplateCache { entries: Mutex::new(HashMap::new()) }
    }

    /// Number of cached templates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the template for `(name, cfg.q1_bits)`, building it from
    /// `model` on first use.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] from the template build (unsupported op, shape
    /// mismatch).
    pub fn get_or_build(
        &self,
        name: &str,
        id: PartyId,
        cfg: &ProtocolConfig,
        model: &QuantModel,
    ) -> Result<Arc<PreparedTemplate>, ProtocolError> {
        let key = (name.to_owned(), cfg.q1_bits);
        if let Some(hit) = self.entries.lock().get(&key).cloned() {
            return Ok(hit);
        }
        // Built outside the lock: the build walks every layer and must not
        // serialize unrelated sessions (nor trip blocking-while-locked).
        let built = Arc::new(PreparedTemplate::build(id, cfg, model)?);
        let mut entries = self.entries.lock();
        Ok(entries.entry(key).or_insert_with(|| built).clone())
    }
}

/// Builds the deterministic demo dataset + trained/quantized model every
/// process derives identically from fixed seeds (`tiny` or `lenet5`) —
/// the reproduction's stand-in for a provider shipping its public
/// architecture plus the offline share setup. Server binary, example,
/// tests and benches all share this one recipe so client and provider
/// weights always match across process boundaries.
///
/// # Errors
///
/// An unknown name, or a training/quantization failure, as a message.
pub fn demo_model(name: &str) -> Result<(aq2pnn_nn::data::SyntheticVision, QuantModel), String> {
    use aq2pnn_nn::data::SyntheticVision;
    use aq2pnn_nn::float::FloatNet;
    use aq2pnn_nn::quant::QuantConfig;
    use aq2pnn_nn::zoo;
    let (spec, data) = match name {
        "tiny" => (zoo::tiny_cnn(4), SyntheticVision::tiny(4, 2024)),
        "lenet5" => (zoo::lenet5(), SyntheticVision::mnist_like(2024)),
        other => return Err(format!("unknown model {other} (tiny|lenet5)")),
    };
    let mut net = FloatNet::init(&spec, 9).map_err(|e| e.to_string())?;
    net.train_epochs(&data, 3, 16, 0.05);
    let model = QuantModel::quantize(&net, &data.calibration(32), &QuantConfig::int8())
        .map_err(|e| e.to_string())?;
    Ok((data, model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq2pnn_nn::data::SyntheticVision;
    use aq2pnn_nn::float::FloatNet;
    use aq2pnn_nn::quant::QuantConfig;
    use aq2pnn_nn::zoo;

    fn tiny_model() -> QuantModel {
        let spec = zoo::tiny_cnn(4);
        let data = SyntheticVision::tiny(4, 2024);
        let mut net = FloatNet::init(&spec, 9).unwrap();
        net.train_epochs(&data, 1, 8, 0.05);
        QuantModel::quantize(&net, &data.calibration(8), &QuantConfig::int8()).unwrap()
    }

    /// Pins the demo models' trained bits (see `nn::float`'s ordering
    /// invariant): client and provider derive their weights independently
    /// from `demo_model`, so these digests must not move unnoticed. Full
    /// size, hence ignored in the debug suite; CI runs it in release.
    #[test]
    #[ignore = "full-size training; run with --release -- --ignored"]
    fn demo_models_are_bit_stable() {
        let got: Vec<u64> =
            ["tiny", "lenet5"].iter().map(|n| demo_model(n).unwrap().1.fingerprint()).collect();
        assert_eq!(got, [1_270_100_716_101_669_948, 2_650_247_657_830_149_864]);
    }

    #[test]
    fn cache_hits_share_one_template_per_profile() {
        let model = tiny_model();
        let cache = TemplateCache::new();
        let c16 = ProtocolConfig::paper(16);
        let c14 = ProtocolConfig::paper(14);
        let a = cache.get_or_build("tiny", PartyId::ModelProvider, &c16, &model).unwrap();
        let b = cache.get_or_build("tiny", PartyId::ModelProvider, &c16, &model).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same (model, profile) must share a template");
        let c = cache.get_or_build("tiny", PartyId::ModelProvider, &c14, &model).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "distinct profiles are distinct templates");
        assert_eq!(cache.len(), 2);
    }
}

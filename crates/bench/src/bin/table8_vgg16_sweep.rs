//! **Table 8** — VGG16-ImageNet bit-width sweep (companion of Table 7).

use aq2pnn::instq::compile_spec;
use aq2pnn::ProtocolConfig;
use aq2pnn_accel::hw::HwConfig;
use aq2pnn_accel::perf::estimate;
use aq2pnn_baselines::reported;
use aq2pnn_bench::{header, tiny_equivalent_bits, train_tiny};
use aq2pnn_nn::spec::ModelSpec;
use aq2pnn_nn::zoo;

fn sweep(spec: &ModelSpec, pool_label: &str, acc_model: &aq2pnn_bench::TrainedModel) {
    println!("--- {} ({pool_label}) ---", spec.name);
    println!("{:<6} {:>12} {:>10} {:>11}", "bits", "acc-proxy(%)", "Tput(fps)", "Comm(MiB)");
    let hw = HwConfig::zcu104();
    for bits in [32u32, 24, 16, 14, 12] {
        let cfg = ProtocolConfig::paper(bits);
        let p = compile_spec(spec, &cfg).expect("spec compiles");
        let perf = estimate(&p, &hw);
        let q1 = tiny_equivalent_bits(bits);
        let acc = 100.0 * acc_model.quant.accuracy_ring(acc_model.data.test(), q1, q1 + 16);
        println!(
            "{bits:<6} {acc:>12.2} {:>10.3} {:>11.1}  [modeled/measured]",
            perf.fps, perf.comm_mib
        );
    }
}

fn main() {
    header("Table 8 — VGG16-ImageNet bit-width sweep");
    // VGG-style accuracy proxy: the pooled feed-forward tiny CNN.
    let acc_model = train_tiny(&zoo::tiny_cnn(4), 4, 52);
    let acc_model_avg = train_tiny(&zoo::tiny_cnn_avgpool(4), 4, 52);

    sweep(&zoo::vgg16_imagenet(), "Max pooling", &acc_model);
    sweep(&zoo::vgg16_imagenet().with_avg_pooling(), "Average pooling", &acc_model_avg);

    println!("\n--- paper (reported) ---");
    println!(
        "{:<6} {:>9} {:>10} {:>11} | {:>9} {:>10} {:>11}",
        "bits", "Top1-max", "fps-max", "comm-max", "Top1-avg", "fps-avg", "comm-avg"
    );
    for (bits, t1m, fm, cm, t1a, fa, ca) in reported::table8_vgg16() {
        println!("{bits:<6} {t1m:>9.2} {fm:>10.3} {cm:>11.1} | {t1a:>9.2} {fa:>10.3} {ca:>11.1}");
    }
    println!(
        "\nshape checks as Table 7, except the avg-pool saving: the engine \
         runs every ReLU→MaxPool pair pool-first (DESIGN.md §7.6), after \
         which a 2×2/2 max-pooled block costs 1 + 3 comparisons per output \
         — exactly the ReLU work of its avg-pooled twin — so the paper's \
         39 % avg-pool comm saving on VGG16 is zero here (it was 22 % in \
         spec order); ResNet18's overlapping 3×3/2 stem pool still pays."
    );
}

//! CLI wrapper for the `e13_scale` experiment; see the library module
//! docs. Emits the kernel-throughput ladder and logs where the
//! machine-readable trajectory record landed. Quick mode is the CI
//! smoke ladder; `--full` climbs the fan-out schedule to 10⁶ identities.
use tg_experiments::exp::e13_scale;
use tg_experiments::Options;

fn main() {
    let opts = Options::from_env();
    e13_scale::run(&opts).emit(&opts);
    eprintln!(
        "[e13] throughput ladder done ({} rungs); BENCH_kernel.json in {}",
        e13_scale::rungs(&opts).len(),
        opts.out_dir,
    );
}

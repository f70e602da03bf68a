use autobal::reference::NaiveSim;
use autobal::sim::{Sim, SimConfig, StrategyKind};

fn main() {
    let cfg = SimConfig {
        nodes: 6_000,
        tasks: 1_200_000,
        strategy: StrategyKind::None,
        churn_rate: 0.0,
        ..SimConfig::default()
    };
    let seed = 0xA0B1_C2D3u64 ^ 0x5E;
    let _ = Sim::new(cfg.clone(), seed).run();
    for rep in 0..3 {
        let t0 = std::time::Instant::now();
        let sim = Sim::new(cfg.clone(), seed);
        let setup = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let r = sim.run();
        let drain = t1.elapsed().as_secs_f64() * 1e3;
        let t2 = std::time::Instant::now();
        let nsim = NaiveSim::new(cfg.clone(), seed);
        let nsetup = t2.elapsed().as_secs_f64() * 1e3;
        let t3 = std::time::Instant::now();
        let nr = nsim.run();
        let ndrain = t3.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.ticks, nr.ticks);
        println!(
            "rep {rep}: opt setup {setup:.1} ms drain {drain:.1} ms | naive setup {nsetup:.1} ms drain {ndrain:.1} ms | ticks {}",
            r.ticks
        );
    }
}

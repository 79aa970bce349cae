/**
 * @file
 * Ablation: what supervised self-healing costs.
 *
 * A persistent unrecoverable fault is planted on a big core mid-run
 * and the Supervisor left to deal with it: rollback-retry, then
 * quarantine, then finish degraded.  Swept over the checkpoint
 * period, the run reports
 *
 *  - rollback latency: host milliseconds per recovery cycle (the
 *    verified fast-forward back to the rollback point plus the
 *    re-executed tail), which shrinks as checkpoints get denser;
 *  - checkpoint overhead: how much the denser checkpointing costs
 *    the clean portion of the run;
 *  - degraded-mode throughput: frame rate after the faulty core is
 *    hotplugged out, against the clean 8-core baseline.
 *
 * The interesting shape: rollback latency should fall roughly
 * linearly with the checkpoint period while the degraded frame rate
 * stays flat - recovery cost is a knob, the degraded steady state is
 * not.
 */

#include <chrono>
#include <cstdio>

#include "base/argparse.hh"
#include "base/csv.hh"
#include "base/strutil.hh"
#include "bench_util.hh"
#include "supervise/supervisor.hh"

using namespace biglittle;

namespace
{

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_abl_recovery",
                   "ablation: rollback latency and degraded-mode "
                   "throughput of supervised recovery");
    args.addString("csv", "", "mirror rows into this CSV file");
    args.addInt("seed", 1, "master seed");
    args.addInt("duration_ms", 4000, "app run length");
    args.parse(argc, argv);

    std::unique_ptr<CsvWriter> csv = openCsvOrExit(args);
    if (csv) {
        csv->header({"ckpt_ms", "attempts", "retries", "quarantines",
                     "wall_ms", "rollback_ms", "clean_fps",
                     "degraded_fps", "fps_retention"});
    }

    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));
    const auto duration_ms =
        static_cast<std::uint64_t>(args.getInt("duration_ms"));
    AppSpec app = eternityWarrior2App();
    app.duration = msToTicks(duration_ms);

    // Clean 8-core baseline: no faults, no supervisor involvement
    // beyond pass-through.
    ExperimentConfig clean_cfg;
    clean_cfg.masterSeed = seed;
    clean_cfg.label = "recovery-clean";
    const auto clean_t0 = std::chrono::steady_clock::now();
    const AppRunResult clean = Experiment(clean_cfg).runApp(app);
    const double clean_wall = wallMsSince(clean_t0);

    std::printf("clean baseline: %.1f fps, %.0f host ms\n\n",
                clean.avgFps, clean_wall);
    std::printf("%s\n",
                (padRight("ckpt period", 13) + padLeft("attempts", 9) +
                 padLeft("retries", 8) + padLeft("rollback", 11) +
                 padLeft("fps", 8) + padLeft("retention", 11))
                    .c_str());

    const std::vector<std::uint64_t> ckpt_periods_ms = {50, 100, 200,
                                                        400};
    for (const std::uint64_t ckpt_ms : ckpt_periods_ms) {
        ExperimentConfig cfg;
        cfg.masterSeed = seed;
        cfg.label = format("recovery-c%llu",
                           static_cast<unsigned long long>(ckpt_ms));
        cfg.snapshot.checkpointEvery = msToTicks(ckpt_ms);
        cfg.fault.enabled = true;
        cfg.fault.persistentCrashCore = 6;
        cfg.fault.persistentCrashAt =
            msToTicks(duration_ms * 6 / 10);

        Supervisor supervisor(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        const SupervisedRunResult r = supervisor.run(app);
        const double wall = wallMsSince(t0);

        // Everything past the clean-run cost is recovery machinery:
        // checkpoints, verified fast-forwards, re-executed tails.
        // Attribute it per rollback cycle.
        const std::uint32_t cycles =
            r.report.retries + r.report.quarantines;
        const double rollback_ms =
            cycles > 0 ? (wall - clean_wall) / cycles : 0.0;
        const double retention =
            clean.avgFps > 0.0 ? r.run.avgFps / clean.avgFps : 0.0;

        std::printf("%s%9u%8u%9.1fms%8.1f%10.0f%%\n",
                    padRight(format("%llums",
                                    static_cast<unsigned long long>(
                                        ckpt_ms)),
                             13)
                        .c_str(),
                    r.report.attempts, r.report.retries, rollback_ms,
                    r.run.avgFps, retention * 100.0);
        if (csv) {
            csv->beginRow();
            csv->cell(static_cast<double>(ckpt_ms));
            csv->cell(static_cast<double>(r.report.attempts));
            csv->cell(static_cast<double>(r.report.retries));
            csv->cell(static_cast<double>(r.report.quarantines));
            csv->cell(wall);
            csv->cell(rollback_ms);
            csv->cell(clean.avgFps);
            csv->cell(r.run.avgFps);
            csv->cell(retention);
            csv->endRow();
        }
    }
    std::puts("\n(denser checkpoints shorten each rollback; the "
              "degraded frame rate depends only on the quarantined "
              "core, not the checkpoint period)");
    return 0;
}

/**
 * @file
 * Ablation: graceful degradation under injected faults.
 *
 * Sweeps the fault-rate knob (scaledFaultParams) from a clean system
 * to a heavily perturbed one - cores hotplugging away, DVFS
 * transitions denied or delayed, thermal-sensor spikes, task stalls -
 * and reports how frame rate (an FPS app) and response latency (a
 * latency app) degrade.  The interesting property is the shape of
 * the curve: performance should bend, not break.  Every run also
 * carries the InvariantChecker; a non-zero violation count means the
 * degradation machinery itself is broken.
 */

#include "paper.hh"

using namespace biglittle;

void
ablFaultResilience(RunTable &, CsvWriter *csv)
{
    if (csv) {
        csv->header({"fault_rate", "avg_fps", "min_fps", "latency_ms",
                     "injected", "hotplug_off", "dvfs_denied",
                     "thermal_spikes", "task_stalls", "violations"});
    }

    const std::vector<double> rates = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0};
    AppSpec fps_app = eternityWarrior2App();
    fps_app.duration = msToTicks(4000);
    const AppSpec latency_app = pdfReaderApp();
    const std::uint64_t seed = 1; // the fault schedule's seed

    std::printf("%s\n",
                (padRight("fault rate", 12) + padLeft("avg fps", 10) +
                 padLeft("min fps", 10) + padLeft("latency", 11) +
                 padLeft("injected", 10) + padLeft("violations", 12))
                    .c_str());
    for (const double rate : rates) {
        ExperimentConfig cfg;
        cfg.fault = scaledFaultParams(rate, seed);
        cfg.label = format("fault-x%g", rate);

        const AppRunResult fps = Experiment(cfg).runApp(fps_app);
        const AppRunResult lat = Experiment(cfg).runApp(latency_app);
        const std::uint64_t injected =
            fps.faults.totalInjected() + lat.faults.totalInjected();
        const std::uint64_t violations =
            fps.invariantViolations + lat.invariantViolations;
        const double latency_ms = lat.performanceValue();

        std::printf("%s%10.1f%10.1f%9.0fms%10llu%12llu\n",
                    padRight(format("x%g", rate), 12).c_str(),
                    fps.avgFps, fps.minFps, latency_ms,
                    static_cast<unsigned long long>(injected),
                    static_cast<unsigned long long>(violations));
        if (csv) {
            csv->beginRow();
            csv->cell(rate);
            csv->cell(fps.avgFps);
            csv->cell(fps.minFps);
            csv->cell(latency_ms);
            csv->cell(static_cast<double>(injected));
            csv->cell(static_cast<double>(fps.faults.hotplugOff +
                                          lat.faults.hotplugOff));
            csv->cell(static_cast<double>(fps.faults.dvfsDenied +
                                          lat.faults.dvfsDenied));
            csv->cell(static_cast<double>(fps.faults.thermalSpikes +
                                          lat.faults.thermalSpikes));
            csv->cell(static_cast<double>(fps.faults.taskStalls +
                                          lat.faults.taskStalls));
            csv->cell(static_cast<double>(violations));
            csv->endRow();
        }
    }
    std::puts("\n(higher fault rates should cost FPS and add "
              "latency without ever tripping an invariant)");
}

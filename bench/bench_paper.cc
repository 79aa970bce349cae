/**
 * @file
 * bench_paper: regenerate the paper's figures and tables and the
 * workbench's ablations and extensions.  Each artifact is a function
 * registered under an id; all of them take their app runs from one
 * RunTable, so a run that several artifacts print is simulated once
 * per process.
 *
 *   bench_paper <id> [--csv F]         print one artifact to stdout
 *   bench_paper --out-dir DIR [id...]  write DIR/<id>.txt (stdout)
 *                                      and DIR/<id>.csv for the named
 *                                      artifacts, or for all of them,
 *                                      and DIR/run_table.txt: one
 *                                      line per run table cell
 *
 * bench/golden/ holds every artifact's output and the run table of
 * all 24; regenerate it with `bench_paper --out-dir bench/golden`.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "base/exit_codes.hh"
#include "paper.hh"

using namespace biglittle;

namespace
{

struct Artifact
{
    const char *id;
    ArtifactFn print;
};

const Artifact artifacts[] = {
    {"fig02_spec_speedup", fig02SpecSpeedup},
    {"fig03_spec_power", fig03SpecPower},
    {"fig04_latency_apps", fig04LatencyApps},
    {"fig05_fps_apps", fig05FpsApps},
    {"fig06_util_power", fig06UtilPower},
    {"fig07_core_configs_perf", fig07CoreConfigsPerf},
    {"fig08_core_configs_power", fig08CoreConfigsPower},
    {"fig09_little_freq_dist", fig09LittleFreqDist},
    {"fig10_big_freq_dist", fig10BigFreqDist},
    {"fig11_param_power", fig11ParamPower},
    {"fig12_param_latency", fig12ParamLatency},
    {"fig13_param_fps", fig13ParamFps},
    {"table3_tlp", table3Tlp},
    {"table4_tlp_matrix", table4TlpMatrix},
    {"table5_efficiency", table5Efficiency},
    {"governor_comparison", governorComparison},
    {"abl_cache_asymmetry", ablCacheAsymmetry},
    {"abl_cluster_migration", ablClusterMigration},
    {"abl_cpuidle", ablCpuidle},
    {"abl_fault_resilience", ablFaultResilience},
    {"abl_migration_boost", ablMigrationBoost},
    {"abl_recovery", ablRecovery},
    {"abl_thermal", ablThermal},
    {"abl_tiny_opp", ablTinyOpp},
};

/** The --help description: both modes and every artifact id. */
std::string
description()
{
    std::string text =
        "the paper's figures, tables and ablations\n\n"
        "  bench_paper <id> [--csv F]         print one artifact\n"
        "  bench_paper --out-dir DIR [id...]  write DIR/<id>.txt and "
        "DIR/<id>.csv\n"
        "                                     (all artifacts when none "
        "is named)\n"
        "                                     and DIR/run_table.txt, "
        "the metrics and\n"
        "                                     section digests of every "
        "run table cell\n\n"
        "artifact ids:";
    for (const Artifact &a : artifacts)
        text += std::string("\n  ") + a.id;
    return text;
}

/**
 * Point stdout at @p path, or print why not and exit with exitBadFile
 * (3), as openCsvOrExit() does.
 */
void
redirectStdoutOrExit(const std::string &path)
{
    if (std::freopen(path.c_str(), "w", stdout) == nullptr) {
        std::fprintf(stderr, "bench_paper: cannot write %s\n",
                     path.c_str());
        std::exit(exitBadFile);
    }
}

/**
 * Open the CSV mirror at @p path.  Prints the open error and exits
 * with exitBadFile (3) when the file cannot be created - the
 * documented bench exit code for file problems, distinct from usage
 * errors (2).
 */
std::unique_ptr<CsvWriter>
openCsvOrExit(const std::string &path)
{
    auto csv = std::make_unique<CsvWriter>();
    const Status opened = csv->open(path);
    if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.message().c_str());
        std::exit(exitBadFile);
    }
    return csv;
}

int
usageError(const std::string &message)
{
    std::fprintf(stderr,
                 "bench_paper: %s\n(run bench_paper --help for usage)\n",
                 message.c_str());
    return exitUsage;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_paper", description());
    args.addString("csv", "", "mirror the artifact's rows into this "
                              "CSV file");
    args.addString("out-dir", "",
                   "write <id>.txt and <id>.csv of each named "
                   "artifact (all when none is named) and "
                   "run_table.txt into this directory");
    RunTable::addOptions(args);
    const std::vector<std::string> ids = args.parse(argc, argv);

    std::vector<const Artifact *> chosen;
    for (const std::string &id : ids) {
        const Artifact *match = nullptr;
        for (const Artifact &a : artifacts) {
            if (id == a.id)
                match = &a;
        }
        if (match == nullptr)
            return usageError("unknown artifact '" + id + "'");
        chosen.push_back(match);
    }
    const std::string out_dir = args.getString("out-dir");
    const std::string csv_path = args.getString("csv");
    if (out_dir.empty() && chosen.size() != 1)
        return usageError("name one artifact, or use --out-dir");
    if (!out_dir.empty() && !csv_path.empty())
        return usageError("--csv names one artifact's file; --out-dir "
                          "writes <id>.csv itself");

    RunTable runs(args);
    if (out_dir.empty()) {
        std::unique_ptr<CsvWriter> csv;
        if (!csv_path.empty())
            csv = openCsvOrExit(csv_path);
        chosen.front()->print(runs, csv.get());
    } else {
        if (chosen.empty()) {
            for (const Artifact &a : artifacts)
                chosen.push_back(&a);
        }
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        if (ec) {
            std::fprintf(stderr, "bench_paper: cannot create %s: %s\n",
                         out_dir.c_str(), ec.message().c_str());
            return exitBadFile;
        }
        for (const Artifact *a : chosen) {
            const std::string base = out_dir + "/" + a->id;
            std::unique_ptr<CsvWriter> csv = openCsvOrExit(base + ".csv");
            // Artifacts print to stdout: point it at <id>.txt.
            redirectStdoutOrExit(base + ".txt");
            a->print(runs, csv.get());
        }
        redirectStdoutOrExit(out_dir + "/run_table.txt");
        runs.printCells();
    }
    return runs.failures() == 0 ? exitOk : exitFatal;
}

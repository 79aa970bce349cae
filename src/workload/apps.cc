#include "workload/apps.hh"

#include "base/logging.hh"

namespace biglittle
{

namespace
{

/** Work character of Android UI/framework code. */
const WorkClass uiWc{0.6, 0.012, 192.0};

/** Compositor/render loop of non-game apps (small, regular). */
const WorkClass compositorWc{0.65, 0.010, 256.0};

/** Generic CPU-side worker of productivity apps. */
const WorkClass workerWc{0.70, 0.014, 380.0};

/** JavaScript / layout engine: branchy, pointer heavy. */
const WorkClass browserWc{0.45, 0.020, 460.0};

/** Media codec kernels (SIMD-friendly, working set under 512 KB). */
const WorkClass codecWc{0.70, 0.018, 420.0};

/** Game engine frame work (render + physics mix). */
const WorkClass gameWc{0.70, 0.018, 512.0};

/** Hashing/signature scanning kernels. */
const WorkClass scanWc{0.55, 0.018, 440.0};

PeriodicThreadSpec
periodicThread(std::string name, const WorkClass &wc, Tick period,
               double inst, double sigma, double active_prob,
               bool render = false, Tick phase = 0,
               Tick pause_cycle = 0, Tick pause_len = 0)
{
    PeriodicThreadSpec t;
    t.name = std::move(name);
    t.workClass = wc;
    t.periodic.period = period;
    t.periodic.instPerPeriod = inst;
    t.periodic.jitterSigma = sigma;
    t.periodic.activeProbability = active_prob;
    t.periodic.phase = phase;
    t.periodic.pauseCycle = pause_cycle;
    t.periodic.pauseLength = pause_len;
    t.isRender = render;
    return t;
}

constexpr Tick frame60 = usToTicks(16667);
constexpr Tick frame30 = usToTicks(33333);

} // namespace

AppSpec
pdfReaderApp()
{
    AppSpec app;
    app.name = "pdf_reader";
    app.burstChunkInstructions = 9e6;
    app.burstChunkGap = usToTicks(700);
    app.metric = AppMetric::latency;
    app.seed = 101;
    app.duration = msToTicks(60000);
    app.periodicThreads = {
        periodicThread("compositor", compositorWc, frame60, 1.1e6,
                       0.30, 0.95),
        periodicThread("anim", compositorWc, frame30, 1.3e6, 0.30,
                       0.95, false, usToTicks(8000)),
    };
    app.workers = {
        {"parser", workerWc},
        {"raster", workerWc},
    };
    // Open a document, page through it, zoom once.
    app.actions = {
        {25e6, {150e6, 115e6}, msToTicks(300)},
        {8e6, {70e6, 50e6}, msToTicks(190)},
        {8e6, {70e6, 50e6}, msToTicks(190)},
        {8e6, {70e6, 50e6}, msToTicks(190)},
        {8e6, {70e6, 50e6}, msToTicks(190)},
        {8e6, {70e6, 50e6}, msToTicks(190)},
        {10e6, {75e6, 50e6}, msToTicks(170)},
    };
    return app;
}

AppSpec
videoEditorApp()
{
    AppSpec app;
    app.name = "video_editor";
    app.burstChunkInstructions = 9e6;
    app.burstChunkGap = usToTicks(700);
    app.metric = AppMetric::latency;
    app.seed = 102;
    app.duration = msToTicks(60000);
    app.periodicThreads = {
        periodicThread("preview", compositorWc, frame30, 1.6e6, 0.30,
                       0.95),
        periodicThread("audio", codecWc, msToTicks(23), 0.9e6, 0.25,
                       0.80, false, usToTicks(5000)),
    };
    app.workers = {
        {"decode", codecWc},
        {"fx", workerWc},
        {"mux", codecWc},
    };
    // Import a clip, apply effects, scrub, export a segment.
    app.actions = {
        {15e6, {120e6, 45e6, 30e6}, msToTicks(190)},
        {8e6, {95e6, 45e6, 0.0}, msToTicks(150)},
        {8e6, {95e6, 45e6, 0.0}, msToTicks(150)},
        {6e6, {40e6, 0.0, 18e6}, msToTicks(150)},
        {6e6, {40e6, 0.0, 18e6}, msToTicks(150)},
        {8e6, {95e6, 45e6, 0.0}, msToTicks(150)},
        {6e6, {40e6, 0.0, 18e6}, msToTicks(150)},
        {12e6, {120e6, 55e6, 35e6}, msToTicks(170)},
    };
    return app;
}

AppSpec
photoEditorApp()
{
    AppSpec app;
    app.name = "photo_editor";
    app.burstChunkInstructions = 9e6;
    app.burstChunkGap = usToTicks(800);
    app.metric = AppMetric::latency;
    app.seed = 103;
    app.duration = msToTicks(60000);
    app.periodicThreads = {
        periodicThread("compositor", compositorWc, frame60, 0.9e6,
                       0.30, 1.0),
        periodicThread("anim", compositorWc, frame30, 1.0e6, 0.30,
                       0.35, false, usToTicks(7000)),
    };
    app.workers = {
        {"filter", workerWc},
    };
    // Load a photo, apply filters; essentially single threaded.
    app.actions = {
        {10e6, {70e6}, msToTicks(80)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
        {5e6, {58e6}, msToTicks(70)},
    };
    return app;
}

AppSpec
bbenchApp()
{
    AppSpec app;
    app.name = "bbench";
    app.metric = AppMetric::latency;
    app.seed = 104;
    app.duration = msToTicks(120000);
    app.periodicThreads = {
        periodicThread("compositor", compositorWc, frame60, 2.0e6,
                       0.30, 1.00),
        periodicThread("anim", compositorWc, frame30, 1.5e6, 0.30,
                       0.90, false, usToTicks(8000)),
    };
    app.workers = {
        {"js", browserWc},
        {"layout", browserWc},
        {"img1", codecWc},
        {"img2", codecWc},
        {"img3", codecWc},
    };
    // Back-to-back page loads with heavy parallel fan-out; bbench
    // renders a page set with almost no think time.
    app.actions.assign(
        12, ActionSpec{30e6, {170e6, 130e6, 90e6, 70e6, 60e6},
                       msToTicks(45)});
    return app;
}

AppSpec
virusScannerApp()
{
    AppSpec app;
    app.name = "virus_scanner";
    app.burstChunkInstructions = 11e6;
    app.burstChunkGap = usToTicks(500);
    app.metric = AppMetric::latency;
    app.seed = 105;
    app.duration = msToTicks(120000);
    app.periodicThreads = {
        periodicThread("progress_ui", compositorWc, frame60, 0.8e6,
                       0.30, 1.00),
        periodicThread("monitor", uiWc, frame30, 1.0e6, 0.30,
                       0.80, false, usToTicks(6000)),
    };
    app.workers = {
        {"hash", scanWc},
        {"io", uiWc},
        {"db", uiWc},
    };
    // Scan batches of files almost back to back.
    app.actions.assign(
        18, ActionSpec{5e6, {95e6, 30e6, 20e6}, msToTicks(30)});
    return app;
}

AppSpec
browserApp()
{
    AppSpec app;
    app.name = "browser";
    app.burstChunkInstructions = 8e6;
    app.burstChunkGap = usToTicks(900);
    app.metric = AppMetric::latency;
    app.seed = 106;
    app.duration = msToTicks(60000);
    app.periodicThreads = {
        periodicThread("compositor", compositorWc, frame60, 0.9e6,
                       0.30, 0.50),
        periodicThread("anim", compositorWc, frame30, 1.0e6, 0.30,
                       0.50, false, usToTicks(9000)),
        periodicThread("network", uiWc, msToTicks(40), 0.9e6, 0.35,
                       0.45, false, usToTicks(17000)),
    };
    app.workers = {
        {"js", browserWc},
        {"layout", browserWc},
    };
    // A handful of page visits separated by long reading pauses.
    app.actions = {
        {18e6, {80e6, 55e6}, msToTicks(1700)},
        {18e6, {80e6, 55e6}, msToTicks(1700)},
        {18e6, {80e6, 55e6}, msToTicks(1700)},
        {18e6, {80e6, 55e6}, msToTicks(1700)},
        {18e6, {80e6, 55e6}, msToTicks(400)},
    };
    return app;
}

AppSpec
encoderApp()
{
    AppSpec app;
    app.name = "encoder";
    app.metric = AppMetric::latency;
    app.seed = 107;
    app.duration = msToTicks(120000);
    app.periodicThreads = {
        periodicThread("reader", uiWc, msToTicks(22), 1.4e6, 0.25,
                       0.90),
        periodicThread("writer", uiWc, msToTicks(34), 1.0e6, 0.25,
                       0.80),
    };
    app.workers = {
        {"encode", codecWc},
    };
    // Encode a file segment by segment: one hot thread with short
    // I/O pauses between segments.
    app.actions.assign(
        14, ActionSpec{1.5e6, {380e6}, msToTicks(14)});
    return app;
}

AppSpec
angryBirdApp()
{
    AppSpec app;
    app.name = "angry_bird";
    app.metric = AppMetric::fps;
    app.seed = 108;
    app.duration = msToTicks(20000);
    app.periodicThreads = {
        periodicThread("render", gameWc, frame60, 3.5e6, 0.35, 1.0,
                       /*render=*/true, 0, msToTicks(2500),
                       msToTicks(130)),
        periodicThread("physics", gameWc, frame60, 2.8e6, 0.35, 1.0,
                       false, usToTicks(5000), msToTicks(2500),
                       msToTicks(130)),
        periodicThread("audio", codecWc, msToTicks(30), 1.1e6,
                       0.20, 1.0, false, 0, msToTicks(2500),
                       msToTicks(130)),
    };
    return app;
}

AppSpec
eternityWarrior2App()
{
    AppSpec app;
    app.name = "eternity_warrior2";
    app.metric = AppMetric::fps;
    app.seed = 109;
    app.duration = msToTicks(20000);
    app.periodicThreads = {
        periodicThread("render", gameWc, frame60, 17.0e6, 0.60, 1.0,
                       /*render=*/true, 0, msToTicks(3000),
                       msToTicks(120)),
        periodicThread("logic", gameWc, frame60, 5.0e6, 0.42, 1.0,
                       false, usToTicks(4000), msToTicks(3000),
                       msToTicks(120)),
        periodicThread("audio", codecWc, msToTicks(40), 2.0e6, 0.25,
                       1.0, false, 0, msToTicks(3000),
                       msToTicks(120)),
        periodicThread("streamer", workerWc, msToTicks(50), 3.0e6,
                       0.40, 1.0, false, 0, msToTicks(3000),
                       msToTicks(120)),
    };
    return app;
}

AppSpec
fifa15App()
{
    AppSpec app;
    app.name = "fifa15";
    app.metric = AppMetric::fps;
    app.seed = 110;
    app.duration = msToTicks(20000);
    app.periodicThreads = {
        periodicThread("render", gameWc, frame60, 11.5e6, 0.52, 1.0,
                       /*render=*/true, 0, msToTicks(3000),
                       msToTicks(300)),
        periodicThread("logic", gameWc, frame60, 3.0e6, 0.35, 1.0,
                       false, usToTicks(6000), msToTicks(3000),
                       msToTicks(300)),
        periodicThread("ai", gameWc, frame30, 4.0e6, 0.40, 1.0,
                       false, usToTicks(11000), msToTicks(3000),
                       msToTicks(300)),
        periodicThread("audio", codecWc, msToTicks(40), 1.5e6, 0.25,
                       1.0, false, 0, msToTicks(3000),
                       msToTicks(300)),
    };
    return app;
}

AppSpec
videoPlayerApp()
{
    AppSpec app;
    app.name = "video_player";
    app.metric = AppMetric::fps;
    app.seed = 111;
    app.duration = msToTicks(20000);
    // Decode happens in the hardware codec; the CPU only shepherds
    // buffers, mixes audio and composites - exactly why the paper
    // sees almost no big-core use for video.
    app.periodicThreads = {
        periodicThread("video", codecWc, frame30, 1.8e6, 0.25, 1.0,
                       /*render=*/true, 0, msToTicks(2000),
                       msToTicks(110)),
        periodicThread("audio", codecWc, msToTicks(23), 1.0e6, 0.20,
                       0.90, false, 0, msToTicks(2000),
                       msToTicks(110)),
        periodicThread("compositor", compositorWc, frame60, 0.8e6,
                       0.25, 0.90, false, usToTicks(3000),
                       msToTicks(2000), msToTicks(110)),
        periodicThread("demux", uiWc, frame30, 0.6e6, 0.25, 1.0,
                       false, usToTicks(15000), msToTicks(2000),
                       msToTicks(110)),
    };
    return app;
}

AppSpec
youtubeApp()
{
    AppSpec app;
    app.name = "youtube";
    app.metric = AppMetric::fps;
    app.seed = 112;
    app.duration = msToTicks(20000);
    app.periodicThreads = {
        periodicThread("video", codecWc, frame30, 1.6e6, 0.25, 1.0,
                       /*render=*/true, 0, msToTicks(2000),
                       msToTicks(100)),
        periodicThread("audio", codecWc, msToTicks(23), 0.9e6, 0.20,
                       0.95, false, 0, msToTicks(2000),
                       msToTicks(130)),
        periodicThread("compositor", compositorWc, frame60, 0.7e6,
                       0.25, 0.95, false, usToTicks(4000),
                       msToTicks(2000), msToTicks(130)),
        periodicThread("network", uiWc, msToTicks(25), 0.9e6, 0.35,
                       1.0, false, usToTicks(21000),
                       msToTicks(2000), msToTicks(130)),
    };
    return app;
}

const std::vector<AppSpec> &
allApps()
{
    static const std::vector<AppSpec> apps = {
        pdfReaderApp(), videoEditorApp(), photoEditorApp(),
        bbenchApp(), virusScannerApp(), browserApp(), encoderApp(),
        angryBirdApp(), eternityWarrior2App(), fifa15App(),
        videoPlayerApp(), youtubeApp(),
    };
    return apps;
}

namespace
{

std::vector<AppSpec>
appsWithMetric(AppMetric metric)
{
    std::vector<AppSpec> apps;
    for (const AppSpec &app : allApps()) {
        if (app.metric == metric)
            apps.push_back(app);
    }
    return apps;
}

} // namespace

const std::vector<AppSpec> &
latencyApps()
{
    static const std::vector<AppSpec> apps =
        appsWithMetric(AppMetric::latency);
    return apps;
}

const std::vector<AppSpec> &
fpsApps()
{
    static const std::vector<AppSpec> apps =
        appsWithMetric(AppMetric::fps);
    return apps;
}

const AppSpec &
appByName(const std::string &name)
{
    for (const AppSpec &app : allApps()) {
        if (app.name == name)
            return app;
    }
    fatal("unknown app '%s'", name.c_str());
}

} // namespace biglittle

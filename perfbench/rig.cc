#include "rig.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/serialize.hh"
#include "base/strutil.hh"
#include "core/efficiency.hh"
#include "core/freq_residency.hh"
#include "core/state_sampler.hh"
#include "core/tlp.hh"
#include "governor/interactive.hh"
#include "platform/cluster.hh"
#include "platform/platform.hh"
#include "platform/power.hh"
#include "platform/thermal.hh"
#include "sched/hmp.hh"
#include "sim/abrace.hh"
#include "sim/simulation.hh"
#include "workload/app_model.hh"

namespace perfbench
{

using namespace biglittle;

namespace
{

/** A queue entry that does nothing when serviced. */
class NoopEvent : public Event
{
  public:
    explicit NoopEvent(EventPriority prio) : Event(prio) {}
    void process() override {}
};

/**
 * Charges each serviced event's band the host time until the next
 * serviced event, or until its runUntil chunk returns.
 */
class BandClock
{
  public:
    explicit BandClock(BandTrace &trace) : out(trace) {}

    void
    serviced(const ServicedEvent &ev)
    {
        const Clock::time_point now = Clock::now();
        close(now);
        open = true;
        since = now;
        band = bandOf(ev.priority);
        ++out.events[band];
        out.stream.push_back({ev.when, ev.priority});
    }

    void chunkEnd(Clock::time_point now) { close(now); }

  private:
    void
    close(Clock::time_point now)
    {
        if (open)
            out.ns[band] +=
                std::chrono::duration<double, std::nano>(now - since)
                    .count();
        open = false;
    }

    BandTrace &out;
    bool open = false;
    Clock::time_point since;
    std::size_t band = 0;
};

bool
mirrored(const ExperimentConfig &cfg)
{
    const SnapshotParams &snap = cfg.snapshot;
    return cfg.governor == GovernorKind::interactive &&
           !cfg.fault.enabled && snap.checkpointEvery == 0 &&
           snap.resumePath.empty() && snap.recordTracePath.empty() &&
           snap.replayTracePath.empty() && !cfg.watchdog.enabled &&
           !cfg.recovery.supervised && cfg.recovery.script.empty() &&
           cfg.race.baselinePath.empty();
}

} // namespace

RigRun
runRig(const ExperimentConfig &cfg, const AppSpec &app, BandTrace *trace)
{
    if (!mirrored(cfg))
        panic("perfbench rig: config '%s' uses a feature the rig does "
              "not mirror", cfg.label.c_str());

    RigRun out;
    const Clock::time_point t_build = Clock::now();
    AppSpec run_app = app;
    if (cfg.masterSeed != 0)
        run_app.seed = deriveStreamSeed(cfg.masterSeed, "app." + app.name);

    // Construction order follows Experiment::runApp, so every event
    // gets the same sequence number it gets there.
    Simulation sim;
    AsymmetricPlatform platform(sim, cfg.platform);
    HmpScheduler sched(sim, platform, cfg.sched);
    PowerModel power(platform);
    std::vector<std::unique_ptr<Governor>> governors;
    std::vector<std::unique_ptr<ThermalThrottle>> throttles;
    platform.applyCoreConfig(cfg.coreConfig);
    for (std::size_t i = 0; i < platform.clusterCount(); ++i) {
        Cluster &cl = platform.cluster(i);
        governors.push_back(
            std::make_unique<InteractiveGovernor>(sim, cl, cfg.interactive));
        if (cfg.thermalEnabled) {
            throttles.push_back(
                std::make_unique<ThermalThrottle>(sim, cl, cfg.thermal));
        }
    }
    EventQueue &queue = sim.eventQueue();
    std::unique_ptr<RaceDetector> race;
    if (cfg.race.detect) {
        race = std::make_unique<RaceDetector>();
        queue.setRaceDetector(race.get());
    }
    if (cfg.race.tieBreak != TieBreak::fifo)
        queue.setTieBreak(cfg.race.tieBreak, cfg.race.shuffleSeed);

    StateSampler sampler(sim, platform, cfg.sampleWindow);
    EfficiencyAnalyzer efficiency(sim, platform, cfg.sampleWindow);
    AppInstance instance(sim, sched, run_app);

    for (auto &gov : governors)
        gov->start();
    for (auto &throttle : throttles)
        throttle->start();
    sched.start();
    sampler.start();
    efficiency.start();
    const PowerSnapshot before = power.snapshot();
    const Tick start = sim.now();
    instance.start();

    std::optional<BandClock> bands;
    if (trace != nullptr) {
        bands.emplace(*trace);
        queue.setServiceHook(
            [&bands](const ServicedEvent &ev) { bands->serviced(ev); });
    }
    out.buildMs = msBetween(t_build, Clock::now());

    const Tick cap = start +
        (app.metric == AppMetric::latency
             ? std::min(app.duration, cfg.maxSimTime)
             : app.duration);
    const Tick chunk = msToTicks(10);
    double pending = 0.0;
    std::uint64_t chunks = 0;
    while (sim.now() < cap) {
        if (app.metric == AppMetric::latency && instance.done())
            break;
        const Clock::time_point c0 = Clock::now();
        sim.runUntil(std::min(cap, sim.now() + chunk));
        const Clock::time_point c1 = Clock::now();
        out.loopMs += msBetween(c0, c1);
        if (bands)
            bands->chunkEnd(c1);
        pending += static_cast<double>(queue.size());
        ++chunks;
    }
    out.meanPending = chunks > 0 ? pending / static_cast<double>(chunks)
                                 : 0.0;

    const Clock::time_point t_finalize = Clock::now();
    if (trace != nullptr)
        queue.setServiceHook(nullptr);
    if (race != nullptr) {
        race->finish();
        queue.setRaceDetector(nullptr);
        out.raceConflicts = race->conflicts().size();
        out.raceBatches = race->batchesAnalyzed();
        out.raceTracked = race->eventsTracked();
    }

    AppRunResult &r = out.result;
    r.app = app.name;
    r.configLabel = cfg.label;
    r.metric = app.metric;
    r.simulatedTime = sim.now() - start;
    if (app.metric == AppMetric::latency) {
        r.completed = instance.done();
        r.latency = instance.done() ? instance.latency() : r.simulatedTime;
    } else {
        r.completed = true;
        r.avgFps = instance.frameStats().averageFps();
        r.minFps = instance.frameStats().minFps();
        r.frames = instance.frameStats().frames();
    }
    const PowerSnapshot after = power.snapshot();
    r.energy = power.energyBetween(before, after);
    r.avgPowerMw = r.energy.averagePowerMw();
    r.tlp = makeTlpReport(sampler);
    r.efficiency = efficiency.report();
    r.littleResidency = makeFreqResidency(platform.littleCluster());
    r.bigResidency = makeFreqResidency(platform.bigCluster());
    r.sched = sched.stats();
    for (const auto &task : sched.tasks()) {
        TaskSummary summary;
        summary.name = task->name();
        summary.instructionsRetired = task->instructionsRetired();
        summary.littleRuntime = task->runtimeOn(CoreType::little);
        summary.bigRuntime = task->runtimeOn(CoreType::big);
        summary.typeMigrations = task->typeMigrations();
        r.tasks.push_back(std::move(summary));
    }

    // The end-state fingerprint, section for section as runApp's
    // final checkpoint lays it out.
    const Clock::time_point t_digest = Clock::now();
    out.finalizeMs = msBetween(t_finalize, t_digest);
    platform.sync();
    const auto section = [&r](const std::string &name, auto &component) {
        Serializer s;
        component.serialize(s);
        r.stateDigests.emplace_back(name, s.digest());
    };
    section("eventq", queue);
    for (std::size_t i = 0; i < platform.clusterCount(); ++i)
        section(format("cluster.%zu", i), platform.cluster(i));
    for (std::size_t i = 0; i < throttles.size(); ++i)
        section(format("thermal.%zu", i), *throttles[i]);
    section("sched", sched);
    for (std::size_t i = 0; i < governors.size(); ++i)
        section(format("governor.%zu", i), *governors[i]);
    section("app", instance);
    out.digestMs = msBetween(t_digest, Clock::now());

    out.events = queue.eventsServiced();
    for (std::size_t i = 0; i < platform.clusterCount(); ++i)
        out.oppTransitions += platform.cluster(i).freqDomain().transitions();
    for (const auto &throttle : throttles)
        out.throttleEvents += throttle->throttleEvents();
    return out;
}

double
replayQueueMs(const std::vector<ServiceKey> &stream, std::size_t window)
{
    std::vector<std::unique_ptr<NoopEvent>> events;
    events.reserve(stream.size());
    for (const ServiceKey &key : stream) {
        events.push_back(std::make_unique<NoopEvent>(
            static_cast<EventPriority>(key.priority)));
    }
    // Declared after the events so it is destroyed first.
    EventQueue queue;
    const std::size_t n = stream.size();
    const Clock::time_point t0 = Clock::now();
    // The stream is in service order, so its ticks never decrease and
    // the next key is never in the queue's past.
    std::size_t next = 0;
    for (; next < std::min(std::max<std::size_t>(window, 1), n); ++next)
        queue.schedule(*events[next], stream[next].when);
    while (queue.serviceOne()) {
        if (next < n) {
            queue.schedule(*events[next], stream[next].when);
            ++next;
        }
    }
    return msBetween(t0, Clock::now());
}

} // namespace perfbench

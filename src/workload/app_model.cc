#include "workload/app_model.hh"

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

const char *
appMetricName(AppMetric metric)
{
    return metric == AppMetric::latency ? "latency" : "fps";
}

AppInstance::AppInstance(Simulation &sim_in, HmpScheduler &sched_in,
                         const AppSpec &spec)
    : sim(sim_in), sched(sched_in), appSpec(spec)
{
    // ablint:allow(rng-stream): root stream of the app; every consumer forks from it
    Rng root(appSpec.seed);

    for (const PeriodicThreadSpec &pt : appSpec.periodicThreads) {
        Task &task = sched.createTask(
            appSpec.name + "." + pt.name, pt.workClass);
        behaviors.push_back(std::make_unique<PeriodicBehavior>(
            sim, task, root.fork(), pt.periodic,
            pt.isRender ? &renderStats : nullptr));
    }

    if (appSpec.metric == AppMetric::latency) {
        if (appSpec.actions.empty())
            fatal("latency app '%s' has no action script",
                  appSpec.name.c_str());
        Task &ui_task = sched.createTask(appSpec.name + ".ui",
                                         appSpec.uiWorkClass);
        auto ui = std::make_unique<BurstBehavior>(
            sim, ui_task, root.fork(),
            appSpec.burstChunkInstructions, appSpec.burstChunkGap);
        uiBehavior = ui.get();
        behaviors.push_back(std::move(ui));

        for (const BurstThreadSpec &wt : appSpec.workers) {
            Task &task = sched.createTask(
                appSpec.name + "." + wt.name, wt.workClass);
            auto worker = std::make_unique<BurstBehavior>(
                sim, task, root.fork(),
                appSpec.burstChunkInstructions,
                appSpec.burstChunkGap);
            workerBehaviors.push_back(worker.get());
            behaviors.push_back(std::move(worker));
        }

        driver = std::make_unique<WorkflowDriver>(
            sim, *uiBehavior, workerBehaviors, appSpec.actions,
            root.fork(), appSpec.burstJitterSigma);
    }

    // One priority slot per thread: same-tick submissions from
    // different threads settle in thread order instead of schedule
    // order, keeping them out of each other's tie-break batches
    // (docs/DETERMINISM.md).
    for (std::size_t i = 0; i < behaviors.size(); ++i) {
        behaviors[i]->setWorkPriority(
            offsetPriority(EventPriority::workSubmit, i, workSlots));
    }
}

AppInstance::~AppInstance() = default;

void
AppInstance::start()
{
    for (auto &b : behaviors)
        b->start();
    if (driver)
        driver->start();
}

bool
AppInstance::done() const
{
    return driver ? driver->done() : false;
}

Tick
AppInstance::latency() const
{
    BL_ASSERT(driver != nullptr);
    return driver->latency();
}

std::size_t
AppInstance::actionsCompleted() const
{
    return driver ? driver->actionsCompleted() : 0;
}

void
AppInstance::serialize(Serializer &s) const
{
    s.putString(appSpec.name);
    s.putU64(behaviors.size());
    for (const auto &b : behaviors)
        b->serializeState(s);
    renderStats.serialize(s);
    s.putBool(driver != nullptr);
    if (driver)
        driver->serialize(s);
}

} // namespace biglittle

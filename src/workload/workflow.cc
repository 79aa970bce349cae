#include "workload/workflow.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

WorkerSplit::WorkerSplit(std::initializer_list<double> list)
    : count(list.size())
{
    BL_ASSERT(list.size() <= capacity);
    std::copy(list.begin(), list.end(), bursts.begin());
}

WorkflowDriver::WorkflowDriver(Simulation &sim_in, BurstBehavior &ui_in,
                               std::vector<BurstBehavior *> workers_in,
                               std::vector<ActionSpec> actions_in,
                               Rng rng_in, double jitter_sigma,
                               std::function<void(Tick)> on_done)
    : sim(sim_in), ui(ui_in), workers(std::move(workers_in)),
      actions(std::move(actions_in)), rng(rng_in),
      jitterSigma(jitter_sigma), onDone(std::move(on_done))
{
    BL_ASSERT(!actions.empty());
    for (const ActionSpec &a : actions) {
        BL_ASSERT(a.uiInstructions > 0.0);
        BL_ASSERT(a.workerInstructions.size() <= workers.size());
    }
    auto listener = [this](BurstBehavior &, Tick now) {
        threadDrained(now);
    };
    ui.setDrainListener(listener);
    for (BurstBehavior *w : workers)
        w->setDrainListener(listener);
}

double
WorkflowDriver::jittered(double instructions)
{
    if (jitterSigma <= 0.0)
        return instructions;
    return std::max(1.0, rng.logNormal(instructions, jitterSigma));
}

void
WorkflowDriver::start()
{
    startTick = sim.now();
    issueNext();
}

void
WorkflowDriver::issueNext()
{
    BL_ASSERT(nextAction < actions.size());
    BL_ASSERT(outstanding == 0);
    const ActionSpec &action = actions[nextAction];
    ++nextAction;

    // Count involved threads before submitting: drains are
    // synchronous once the work completes, and submissions must not
    // race the countdown.
    outstanding = 1;
    for (const double insts : action.workerInstructions)
        outstanding += insts > 0.0 ? 1 : 0;

    ui.injectBurst(jittered(action.uiInstructions));
    for (std::size_t i = 0; i < action.workerInstructions.size(); ++i) {
        const double insts = action.workerInstructions[i];
        if (insts > 0.0)
            workers[i]->injectBurst(jittered(insts));
    }
}

void
WorkflowDriver::threadDrained(Tick now)
{
    BL_ASSERT(outstanding > 0);
    if (--outstanding > 0)
        return;
    ++completedActions;
    if (nextAction >= actions.size()) {
        finished = true;
        endTick = now;
        if (onDone)
            onDone(now);
        return;
    }
    const Tick think = actions[nextAction - 1].thinkTime;
    if (think == 0) {
        issueNext();
    } else {
        sim.after(think, [this] { issueNext(); },
                  EventPriority::workflowStep, "workflow.think");
    }
}

Tick
WorkflowDriver::latency() const
{
    BL_ASSERT(finished);
    return endTick - startTick;
}

void
WorkflowDriver::serialize(Serializer &s) const
{
    rng.serialize(s);
    s.putU64(startTick);
    s.putU64(endTick);
    s.putU64(nextAction);
    s.putU64(completedActions);
    s.putU32(outstanding);
    s.putBool(finished);
}

} // namespace biglittle

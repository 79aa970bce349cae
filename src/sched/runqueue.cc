#include "sched/runqueue.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "platform/perf_model.hh"
#include "sched/hmp.hh"

namespace biglittle
{

CoreRunner::CoreRunner(Simulation &sim_in, Core &core_in,
                       HmpScheduler &sched_in, const SchedParams &params_in)
    : sim(sim_in), coreRef(core_in), sched(sched_in), params(params_in),
      sliceEvent([this] { onSliceEvent(); },
                 offsetPriority(EventPriority::sliceEnd, core_in.id(),
                                sliceSlots),
                 core_in.name() + ".slice")
{
    coreRef.freqDomain().addListener(
        [this](const Opp &, const Opp &next) {
            onFreqChange(next.freq);
        });
}

double
CoreRunner::loadSum() const
{
    double sum = cur != nullptr ? cur->loadTracker().value() : 0.0;
    for (const Task *t : waitQ)
        sum += t->loadTracker().value();
    return sum;
}

void
CoreRunner::enqueue(Task &task)
{
    sim.noteWrite(coreRef.name(), "rq");
    sim.noteWrite(task.name(), "state");
    BL_ASSERT(coreRef.online());
    BL_ASSERT(!task.drained());
    task.noteQueued(coreRef, sim.now());
    waitQ.push_back(&task);
    if (cur == nullptr)
        startNext();
    // A running slice's quantum already expires within one timeslice
    // of now (quantumEnd is always set from the current tick), so a
    // newcomer waits at most one quantum - no clipping needed.
    updateBusy();
}

void
CoreRunner::remove(Task &task)
{
    sim.noteWrite(coreRef.name(), "rq");
    sim.noteWrite(task.name(), "state");
    if (cur == &task) {
        chargeRunning();
        task.accrueLoad(sim.now(), sched.freqScale(coreRef));
        if (sliceEvent.scheduled())
            sim.eventQueue().deschedule(sliceEvent);
        cur->notePreempted();
        cur = nullptr;
        startNext();
    } else {
        task.accrueLoad(sim.now(), sched.freqScale(coreRef));
        const auto it = std::find(waitQ.begin(), waitQ.end(), &task);
        BL_ASSERT(it != waitQ.end());
        waitQ.erase(it);
    }
    updateBusy();
}

void
CoreRunner::chargeRunning()
{
    if (cur == nullptr)
        return;
    const Tick now = sim.now();
    BL_ASSERT(now >= sliceStart);
    const Tick elapsed = now - sliceStart;
    cur->consume(ticksToSeconds(elapsed) * rate);
    cur->addRuntime(coreRef.type(), elapsed);
    sliceStart = now;
}

void
CoreRunner::startNext()
{
    BL_ASSERT(cur == nullptr);
    if (waitQ.empty()) {
        updateBusy();
        return;
    }
    cur = waitQ.front();
    waitQ.pop_front();
    cur->noteRunning();
    ++slices;
    sliceStart = sim.now();
    quantumEnd = sim.now() + params.timeslice;
    rate = perf_model::instRate(coreRef, cur->workClass());
    BL_ASSERT(rate > 0.0);
    armSliceEvent();
    updateBusy();
}

void
CoreRunner::armSliceEvent()
{
    BL_ASSERT(cur != nullptr);
    const double remaining_sec = cur->pendingInstructions() / rate;
    const Tick finish = sliceStart +
        static_cast<Tick>(std::ceil(remaining_sec * 1e9));
    Tick when;
    if (finish <= quantumEnd) {
        completionPlanned = true;
        when = finish;
    } else {
        completionPlanned = false;
        when = quantumEnd;
    }
    when = std::max(when, sim.now() + 1);
    sim.eventQueue().reschedule(sliceEvent, when);
}

void
CoreRunner::onSliceEvent()
{
    BL_ASSERT(cur != nullptr);
    sim.noteWrite(coreRef.name(), "rq");
    sim.noteWrite(cur->name(), "state");
    // Charge elapsed progress (and runtime attribution) first; at a
    // planned completion point, clear any floating-point residue so
    // the task actually drains.
    chargeRunning();
    if (completionPlanned)
        cur->consumeAll();
    if (cur->drained()) {
        Task *done = cur;
        cur = nullptr;
        done->accrueLoad(sim.now(), sched.freqScale(coreRef));
        done->noteSleeping(sim.now());
        updateBusy();
        startNext();
        sched.taskDrained(*done);
        return;
    }
    // Quantum expiry: rotate if anyone is waiting.
    chargeRunning();
    if (waitQ.empty()) {
        quantumEnd = sim.now() + params.timeslice;
        armSliceEvent();
        return;
    }
    Task *preempted = cur;
    cur = nullptr;
    preempted->notePreempted();
    waitQ.push_back(preempted);
    startNext();
}

void
CoreRunner::onFreqChange(FreqKHz new_freq)
{
    if (cur == nullptr)
        return;
    // Fired from the domain's dvfs-apply handler: the running slice
    // is re-planned at the new speed, which contends with this
    // core's own slice event when both land on one tick.
    sim.noteWrite(coreRef.name(), "rq");
    chargeRunning();
    if (cur->drained()) {
        // Rounding placed completion a hair after the change; let the
        // pending slice event observe the drain.
        rate = perf_model::instRateAt(coreRef, new_freq,
                                      cur->workClass());
        return;
    }
    rate = perf_model::instRateAt(coreRef, new_freq, cur->workClass());
    armSliceEvent();
}

void
CoreRunner::updateBusy()
{
    coreRef.setBusy(cur != nullptr || !waitQ.empty());
}

} // namespace biglittle

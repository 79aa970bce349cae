#include "workload/behavior.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

Behavior::Behavior(Simulation &sim_in, Task &task_in, Rng rng_in)
    : sim(sim_in), taskRef(task_in), rng(rng_in)
{
    taskRef.setClient(this);
}

Behavior::~Behavior()
{
    if (taskRef.client() == this)
        taskRef.setClient(nullptr);
}

void
Behavior::serializeState(Serializer &s) const
{
    rng.serialize(s);
}

ContinuousBehavior::ContinuousBehavior(
    Simulation &sim_in, Task &task_in, Rng rng_in,
    double total_instructions, std::function<void(Tick)> on_complete)
    : Behavior(sim_in, task_in, rng_in), budget(total_instructions),
      onComplete(std::move(on_complete))
{
    BL_ASSERT(budget > 0.0);
}

void
ContinuousBehavior::start()
{
    taskRef.submitWork(budget);
}

void
ContinuousBehavior::onWorkDrained(Task &)
{
    BL_ASSERT(!completed);
    completed = true;
    finishTick = sim.now();
    if (onComplete)
        onComplete(finishTick);
}

void
ContinuousBehavior::serializeState(Serializer &s) const
{
    Behavior::serializeState(s);
    s.putDouble(budget);
    s.putBool(completed);
    s.putU64(finishTick);
}

PeriodicBehavior::PeriodicBehavior(Simulation &sim_in, Task &task_in,
                                   Rng rng_in, const PeriodicSpec &spec,
                                   FrameStats *stats_in)
    : Behavior(sim_in, task_in, rng_in), periodicSpec(spec),
      stats(stats_in)
{
    BL_ASSERT(periodicSpec.period > 0);
    BL_ASSERT(periodicSpec.instPerPeriod > 0.0);
}

void
PeriodicBehavior::start()
{
    frameEvent.emplace([this] { submitFrame(); }, workPrio,
                       taskRef.name() + ".frame");
    nextRelease = sim.now() + periodicSpec.phase;
    if (nextRelease <= sim.now())
        submitFrame();
    else
        sim.eventQueue().schedule(*frameEvent, nextRelease);
}

void
PeriodicBehavior::submitFrame()
{
    sim.noteWrite(taskRef.name(), "work");
    if (periodicSpec.pauseCycle > 0) {
        const Tick phase = sim.now() % periodicSpec.pauseCycle;
        if (phase < periodicSpec.pauseLength) {
            // Scene pause: resume at the end of the pause window.
            sim.eventQueue().schedule(
                *frameEvent,
                sim.now() + (periodicSpec.pauseLength - phase));
            return;
        }
    }
    nextRelease = sim.now() + periodicSpec.period;
    if (periodicSpec.activeProbability < 1.0 &&
        !rng.chance(periodicSpec.activeProbability)) {
        // Nothing dirty this period; wake again at the next vsync.
        sim.eventQueue().schedule(*frameEvent, nextRelease);
        return;
    }
    const double cost = rng.logNormal(periodicSpec.instPerPeriod,
                                      periodicSpec.jitterSigma);
    taskRef.submitWork(std::max(1.0, cost));
}

void
PeriodicBehavior::onWorkDrained(Task &)
{
    sim.noteWrite(taskRef.name(), "work");
    ++frames;
    if (stats != nullptr)
        stats->recordFrame(sim.now());
    // Vsync pacing: the next frame starts one period after this one
    // was released, or immediately if we already missed that slot.
    if (nextRelease <= sim.now())
        submitFrame();
    else
        sim.eventQueue().schedule(*frameEvent, nextRelease);
}

void
PeriodicBehavior::serializeState(Serializer &s) const
{
    Behavior::serializeState(s);
    s.putU64(nextRelease);
    s.putU64(frames);
}

BurstBehavior::BurstBehavior(Simulation &sim_in, Task &task_in,
                             Rng rng_in, double chunk_instructions,
                             Tick chunk_gap)
    : Behavior(sim_in, task_in, rng_in),
      chunkInstructions(chunk_instructions), chunkGap(chunk_gap)
{
    BL_ASSERT(chunk_instructions >= 0.0);
}

void
BurstBehavior::start()
{
}

void
BurstBehavior::injectBurst(double instructions)
{
    sim.noteWrite(taskRef.name(), "work");
    BL_ASSERT(instructions > 0.0);
    if (chunkInstructions <= 0.0) {
        taskRef.submitWork(instructions);
        return;
    }
    backlog += instructions;
    submitNextChunk();
}

void
BurstBehavior::submitNextChunk()
{
    sim.noteWrite(taskRef.name(), "work");
    BL_ASSERT(backlog > 0.0);
    const double chunk = std::min(backlog, chunkInstructions);
    backlog -= chunk;
    taskRef.submitWork(chunk);
}

void
BurstBehavior::setDrainListener(DrainListener listener)
{
    drainListener = std::move(listener);
}

void
BurstBehavior::onWorkDrained(Task &)
{
    if (backlog > 0.0) {
        // Micro-stall, then the next chunk of the same burst.
        sim.after(chunkGap, [this] { submitNextChunk(); }, workPrio,
                  taskRef.name() + ".chunk");
        return;
    }
    ++bursts;
    if (drainListener)
        drainListener(*this, sim.now());
}

void
BurstBehavior::serializeState(Serializer &s) const
{
    Behavior::serializeState(s);
    s.putDouble(backlog);
    s.putU64(bursts);
}

DutyCycleBehavior::DutyCycleBehavior(Simulation &sim_in, Task &task_in,
                                     Rng rng_in,
                                     double target_utilization,
                                     double chunk_instructions)
    : Behavior(sim_in, task_in, rng_in), target(target_utilization),
      chunk(chunk_instructions)
{
    BL_ASSERT(target > 0.0 && target <= 1.0);
    BL_ASSERT(chunk > 0.0);
}

void
DutyCycleBehavior::start()
{
    chunkStart = sim.now();
    taskRef.submitWork(chunk);
}

void
DutyCycleBehavior::onWorkDrained(Task &)
{
    sim.noteWrite(taskRef.name(), "work");
    const Tick busy = sim.now() - chunkStart;
    // Pause long enough that busy/(busy+pause) == target, exactly as
    // the paper's microbenchmark throttles itself.
    const double pause_sec =
        ticksToSeconds(busy) * (1.0 - target) / target;
    const Tick pause = static_cast<Tick>(std::llround(pause_sec * 1e9));
    if (pause == 0) {
        chunkStart = sim.now();
        taskRef.submitWork(chunk);
        return;
    }
    sim.after(pause,
              [this] {
                  sim.noteWrite(taskRef.name(), "work");
                  chunkStart = sim.now();
                  taskRef.submitWork(chunk);
              },
              workPrio, taskRef.name() + ".duty");
}

void
DutyCycleBehavior::serializeState(Serializer &s) const
{
    Behavior::serializeState(s);
    s.putU64(chunkStart);
}

} // namespace biglittle

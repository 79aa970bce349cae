#include "platform/thermal.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/serialize.hh"
#include "platform/power.hh"

namespace biglittle
{

ThermalThrottle::ThermalThrottle(Simulation &sim_in, Cluster &cluster,
                                 const ThermalParams &params)
    : sim(sim_in), clusterRef(cluster), tp(params), temp(params.ambientC),
      lastEval(sim_in.now()),
      ceilingIndex(cluster.freqDomain().opps().size() - 1)
{
    BL_ASSERT(tp.heatCapacityJPerC > 0.0);
    BL_ASSERT(tp.conductanceWPerC > 0.0);
    BL_ASSERT(tp.hotTripC > tp.coolTripC);
    BL_ASSERT(tp.evalPeriod > 0);
}

FreqKHz
ThermalThrottle::ceiling() const
{
    return clusterRef.freqDomain().opps()[ceilingIndex].freq;
}

void
ThermalThrottle::start()
{
    lastEval = sim.now();
    if (evalTask == nullptr) {
        evalTask = &sim.addPeriodic(
            tp.evalPeriod, [this](Tick now) { evaluate(now); },
            offsetPriority(EventPriority::thermal,
                           clusterRef.core(0).id(), clusterSlots),
            clusterRef.name() + ".thermal");
    }
    evalTask->start();
}

void
ThermalThrottle::stop()
{
    if (evalTask != nullptr)
        evalTask->cancel();
}

void
ThermalThrottle::clampTemperature()
{
    // A perturbed sensor may bias the throttle but must never wedge
    // the model: reject NaN/inf and keep the reading in a plausible
    // band so the Euler step stays stable.
    if (!std::isfinite(temp)) {
        warn("%s: non-finite temperature reading; resetting to "
             "ambient", clusterRef.name().c_str());
        temp = tp.ambientC;
        return;
    }
    temp = std::clamp(temp, tp.ambientC, 300.0);
}

void
ThermalThrottle::injectTemperature(double delta_c)
{
    sim.noteWrite(clusterRef.name(), "temp");
    ++spikes;
    temp += delta_c;
    clampTemperature();
}

void
ThermalThrottle::evaluate(Tick now)
{
    const std::string &cluster_name = clusterRef.name();
    sim.noteRead(cluster_name, "power");
    sim.noteWrite(cluster_name, "temp");
    const double dt = ticksToSeconds(now - lastEval);
    lastEval = now;
    const double power_w =
        clusterInstantPowerMw(clusterRef) / 1000.0;
    // Explicit Euler on C*dT/dt = P - G*(T - Tamb); the evaluation
    // period is far below the thermal time constant, so this is
    // stable and accurate enough.
    temp += dt *
            (power_w - tp.conductanceWPerC * (temp - tp.ambientC)) /
            tp.heatCapacityJPerC;
    clampTemperature();

    FreqDomain &domain = clusterRef.freqDomain();
    if (temp > tp.hotTripC && ceilingIndex > 0) {
        --ceilingIndex;
        ++throttles;
        domain.setCeiling(domain.opps()[ceilingIndex].freq);
    } else if (temp < tp.coolTripC &&
               ceilingIndex + 1 < domain.opps().size()) {
        ++ceilingIndex;
        domain.setCeiling(domain.opps()[ceilingIndex].freq);
    }
}

void
ThermalThrottle::serialize(Serializer &s) const
{
    s.putDouble(temp);
    s.putU64(lastEval);
    s.putU64(ceilingIndex);
    s.putU64(throttles);
    s.putU64(spikes);
}

} // namespace biglittle

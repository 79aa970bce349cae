/**
 * @file
 * ThermalThrottle: a first-order thermal model with an OPP ceiling,
 * in the spirit of the kernel's intelligent-power-allocation (IPA)
 * thermal governor.
 *
 * Cluster temperature follows C*dT/dt = P - G*(T - T_ambient) with
 * the cluster's instantaneous power P.  Above the hot trip point the
 * throttle lowers the cluster's frequency ceiling one OPP per
 * evaluation; once the temperature falls below the cool trip point
 * it raises the ceiling again.  On the modeled platform a single big
 * core can sustain its maximum frequency, but multi-core big-cluster
 * bursts settle near ~1.0-1.4 GHz - the behavior that keeps real
 * phones from quadrupling their power under parallel load.
 */

#ifndef BIGLITTLE_PLATFORM_THERMAL_HH
#define BIGLITTLE_PLATFORM_THERMAL_HH

#include "base/types.hh"
#include "platform/cluster.hh"
#include "sim/simulation.hh"

namespace biglittle
{

class Serializer;

/** Thermal-model coefficients for one cluster. */
struct ThermalParams
{
    double ambientC = 30.0; ///< ambient temperature, deg C
    double heatCapacityJPerC = 0.25; ///< lumped capacitance
    double conductanceWPerC = 0.08; ///< dissipation to ambient
    double hotTripC = 85.0; ///< start throttling above this
    double coolTripC = 75.0; ///< release throttling below this
    Tick evalPeriod = msToTicks(100);
};

/** Per-cluster thermal governor applying a frequency ceiling. */
class ThermalThrottle
{
  public:
    ThermalThrottle(Simulation &sim, Cluster &cluster,
                    const ThermalParams &params = ThermalParams{});

    ThermalThrottle(const ThermalThrottle &) = delete;
    ThermalThrottle &operator=(const ThermalThrottle &) = delete;

    /** Begin periodic evaluation. */
    void start();

    /** Stop evaluating (the current ceiling stays in force). */
    void stop();

    /** Current junction temperature estimate. */
    double temperatureC() const { return temp; }

    /**
     * Perturb the sensed temperature by @p delta_c (fault injection:
     * a sensor spike or dropout).  The reading is clamped to the
     * physically plausible [ambient, 300 C] band so a bad sample can
     * bias the throttle but never wedge it on NaN/inf or a negative
     * temperature; the first-order model then bleeds the spike off.
     */
    void injectTemperature(double delta_c);

    /** Sensor spikes injected so far. */
    std::uint64_t sensorSpikes() const { return spikes; }

    /** Current ceiling (maxFreq when unthrottled). */
    FreqKHz ceiling() const;

    /** Number of evaluations that lowered the ceiling. */
    std::uint64_t throttleEvents() const { return throttles; }

    const ThermalParams &params() const { return tp; }

    /** Write temperature/ceiling state and counters. */
    void serialize(Serializer &s) const;

  private:
    Simulation &sim;
    Cluster &clusterRef;
    ThermalParams tp;

    PeriodicTask *evalTask = nullptr;
    double temp;
    Tick lastEval = 0;
    std::size_t ceilingIndex; ///< index into the OPP table
    std::uint64_t throttles = 0;
    std::uint64_t spikes = 0;

    void evaluate(Tick now);
    void clampTemperature();
};

} // namespace biglittle

#endif // BIGLITTLE_PLATFORM_THERMAL_HH

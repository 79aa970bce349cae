/**
 * @file
 * LoadTracker: the time-weighted CPU-load average that drives HMP
 * migration (Algorithm 1).
 *
 * The tracked value is a geometric average over 1 ms periods: each
 * tick the history decays by y (y^halfLife = 0.5) and the newest
 * period contributes its runnable fraction, scaled by the current
 * frequency relative to the core's maximum ("the CPU load should be
 * normalized by the current clock frequency").  A task that stays
 * runnable at full frequency converges to the fixed point 1024.
 * Loads are frozen while a task sleeps, as the paper describes.
 */

#ifndef BIGLITTLE_SCHED_LOAD_HH
#define BIGLITTLE_SCHED_LOAD_HH

#include <cstdint>

namespace biglittle
{

class Serializer;

/** Decaying average of per-millisecond runnable load. */
class LoadTracker
{
  public:
    /** Fixed-point full-scale load value (matches the kernel). */
    static constexpr double fullScale = 1024.0;

    /** @param half_life_ms periods after which weight halves. */
    explicit LoadTracker(double half_life_ms = 32.0);

    /**
     * Account one tick.
     * @param runnable_fraction fraction of the period the task was
     *        runnable or running, in [0, 1]
     * @param freq_scale current/maximum frequency of the core the
     *        task sits on, in (0, 1]
     * @param periods number of 1 ms periods covered by this update
     */
    void update(double runnable_fraction, double freq_scale,
                std::uint32_t periods = 1);

    /**
     * Accrue @p periods (possibly fractional) 1 ms periods of
     * constant contribution: load converges geometrically toward
     * 1024 * contribution * freq_scale.  update() is the integer
     * special case; the scheduler uses this form so sub-millisecond
     * runnable stretches (burst chunks) are credited exactly.
     */
    void accrue(double periods, double contribution,
                double freq_scale);

    /**
     * Decay the history by @p periods (possibly fractional) 1 ms
     * periods with no new contribution.  Used for the catch-up decay
     * a task receives at wakeup for the time it slept: the load is
     * "not updated" while sleeping, but the elapsed history is
     * accounted lazily when the task runs again.
     */
    void decay(double periods);

    /** Current load in [0, 1024]. */
    double value() const { return load; }

    /** Reset to zero history. */
    void reset();

    /** Write half-life and current load. */
    void serialize(Serializer &s) const;

  private:
    double halfLifeMs;
    // ablint:allow(serialize-coverage): derived from halfLifeMs, which is serialized
    double decayFactor; ///< per-period multiplier y, y^halfLife = 0.5
    double load = 0.0;

    static double decayFor(double half_life_ms);
};

} // namespace biglittle

#endif // BIGLITTLE_SCHED_LOAD_HH

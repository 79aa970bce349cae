/**
 * @file
 * FrameStats: per-frame completion records and the FPS summaries the
 * paper reports (average FPS over the run, and worst-case FPS over
 * one-second windows, which is what "minimum FPS" in Fig. 5 means -
 * occasional demand spikes hurt the worst window long before they
 * move the average).
 */

#ifndef BIGLITTLE_WORKLOAD_FRAME_STATS_HH
#define BIGLITTLE_WORKLOAD_FRAME_STATS_HH

#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace biglittle
{

class Serializer;

/** Collects frame-completion timestamps from a render thread. */
class FrameStats
{
  public:
    /** Record a frame completed at @p now. */
    void recordFrame(Tick now);

    /** Number of frames completed. */
    std::size_t frames() const { return completions.size(); }

    /**
     * Average FPS between the first and last completion (0 with
     * fewer than 2 frames).
     */
    double averageFps() const;

    /**
     * Minimum FPS over tumbling windows of @p window ticks
     * (default 1 s).  Counts frames per window between the first and
     * last completion; windows shorter than half the nominal window
     * at the tail are dropped.
     */
    double minFps(Tick window = oneSec) const;

    /** Frame-to-frame intervals in milliseconds. */
    SampleSeries frameIntervalsMs() const;

    /** Write the completion record. */
    void serialize(Serializer &s) const;

  private:
    std::vector<Tick> completions;
};

} // namespace biglittle

#endif // BIGLITTLE_WORKLOAD_FRAME_STATS_HH

#include "workload/frame_stats.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/serialize.hh"

namespace biglittle
{

void
FrameStats::recordFrame(Tick now)
{
    BL_ASSERT(completions.empty() || now >= completions.back());
    completions.push_back(now);
}

double
FrameStats::averageFps() const
{
    if (completions.size() < 2)
        return 0.0;
    const Tick span = completions.back() - completions.front();
    if (span == 0)
        return 0.0;
    return static_cast<double>(completions.size() - 1) /
           ticksToSeconds(span);
}

double
FrameStats::minFps(Tick window) const
{
    BL_ASSERT(window > 0);
    if (completions.size() < 2)
        return 0.0;
    const Tick start = completions.front();
    const Tick end = completions.back();
    if (end - start < window)
        return averageFps();

    double min_fps = -1.0;
    Tick win_start = start;
    while (win_start < end) {
        const Tick win_end = std::min(win_start + window, end);
        const Tick span = win_end - win_start;
        if (span * 2 < window)
            break; // drop a short tail window
        const auto lo = std::lower_bound(completions.begin(),
                                         completions.end(), win_start);
        const auto hi = std::lower_bound(completions.begin(),
                                         completions.end(), win_end);
        const double fps =
            static_cast<double>(hi - lo) / ticksToSeconds(span);
        if (min_fps < 0.0 || fps < min_fps)
            min_fps = fps;
        win_start = win_end;
    }
    return min_fps < 0.0 ? averageFps() : min_fps;
}

void
FrameStats::serialize(Serializer &s) const
{
    s.putU64(completions.size());
    for (const Tick t : completions)
        s.putU64(t);
}

SampleSeries
FrameStats::frameIntervalsMs() const
{
    SampleSeries s;
    for (std::size_t i = 1; i < completions.size(); ++i) {
        s.add(static_cast<double>(completions[i] - completions[i - 1]) /
              static_cast<double>(oneMs));
    }
    return s;
}

} // namespace biglittle

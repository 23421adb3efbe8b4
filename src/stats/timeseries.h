/**
 * @file
 * Append-only time series used to record runtime traces (Fig. 11/13/14):
 * per-instance frequency over time, chip power over time, latency over
 * time. Supports CSV dumping and coarse resampling for printed output.
 */

#ifndef PC_STATS_TIMESERIES_H
#define PC_STATS_TIMESERIES_H

#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace pc {

class TimeSeries
{
  public:
    struct Point
    {
        SimTime t;
        double value;
    };

    explicit TimeSeries(std::string name = "") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    void append(SimTime t, double value);

    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }
    const std::vector<Point> &points() const { return points_; }

    /** Mean of values with timestamps in [from, to). */
    double meanOver(SimTime from, SimTime to) const;

    /** Last recorded value at or before @p t (0 if none). */
    double valueAt(SimTime t) const;

    /** Mean of all values. */
    double mean() const;

    /**
     * Resample into @p buckets equal spans of [from, to); each output
     * value is the mean of the points in the bucket (carrying the last
     * value forward through empty buckets).
     */
    std::vector<double> resample(SimTime from, SimTime to,
                                 int buckets) const;

    /** Dump as "t_seconds,value" CSV rows. */
    void writeCsv(std::ostream &out) const;

  private:
    std::string name_;
    std::vector<Point> points_;
};

/** The `[[t_us, v], …]` point array (metrics dumps use it bare). */
JsonValue pointsToJson(const TimeSeries &series);

/** Result-codec leaf (common/field_codec.h): `{"name", "points"}`. */
JsonValue encodeJson(const TimeSeries &series);

/** Inverse of encodeJson; false on bad times or out-of-order points. */
bool decodeJson(const JsonValue &doc, TimeSeries *out);

} // namespace pc

#endif // PC_STATS_TIMESERIES_H

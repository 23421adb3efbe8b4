#include "stats/timeseries.h"

#include <algorithm>

#include "common/field_codec.h"
#include "common/logging.h"

namespace pc {

void
TimeSeries::append(SimTime t, double value)
{
    if (!points_.empty() && t < points_.back().t)
        panic("time series '%s': non-monotonic append", name_.c_str());
    points_.push_back({t, value});
}

double
TimeSeries::meanOver(SimTime from, SimTime to) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &p : points_) {
        if (p.t >= from && p.t < to) {
            sum += p.value;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
TimeSeries::valueAt(SimTime t) const
{
    double last = 0.0;
    for (const auto &p : points_) {
        if (p.t > t)
            break;
        last = p.value;
    }
    return last;
}

double
TimeSeries::mean() const
{
    if (points_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : points_)
        sum += p.value;
    return sum / static_cast<double>(points_.size());
}

std::vector<double>
TimeSeries::resample(SimTime from, SimTime to, int buckets) const
{
    std::vector<double> out;
    if (buckets <= 0 || to <= from)
        return out;
    out.reserve(static_cast<std::size_t>(buckets));
    const double spanSec = (to - from).toSec() / buckets;
    double carry = 0.0;
    for (int b = 0; b < buckets; ++b) {
        const SimTime lo = from + SimTime::sec(spanSec * b);
        const SimTime hi = from + SimTime::sec(spanSec * (b + 1));
        double sum = 0.0;
        std::size_t n = 0;
        for (const auto &p : points_) {
            if (p.t >= lo && p.t < hi) {
                sum += p.value;
                ++n;
            }
        }
        if (n)
            carry = sum / static_cast<double>(n);
        out.push_back(carry);
    }
    return out;
}

void
TimeSeries::writeCsv(std::ostream &out) const
{
    for (const auto &p : points_)
        out << p.t.toSec() << ',' << p.value << '\n';
}

JsonValue
pointsToJson(const TimeSeries &series)
{
    JsonArray points;
    points.reserve(series.size());
    for (const auto &p : series.points())
        points.push_back(
            JsonValue(JsonArray{encodeJson(p.t), JsonValue(p.value)}));
    return JsonValue(std::move(points));
}

JsonValue
encodeJson(const TimeSeries &series)
{
    return JsonValue(JsonObject{{"name", JsonValue(series.name())},
                                {"points", pointsToJson(series)}});
}

bool
decodeJson(const JsonValue &doc, TimeSeries *out)
{
    const JsonValue *name = doc.find("name");
    const JsonValue *points = doc.find("points");
    if (!name || !name->isString() || !points || !points->isArray())
        return false;
    TimeSeries series(name->asString());
    for (const auto &p : points->asArray()) {
        SimTime t;
        double value = 0.0;
        if (!p.isArray() || p.asArray().size() != 2 ||
            !decodeJson(p.asArray()[0], &t) ||
            !decodeJson(p.asArray()[1], &value) ||
            (!series.empty() && t < series.points().back().t))
            return false;
        series.append(t, value);
    }
    *out = std::move(series);
    return true;
}

} // namespace pc

#include "trace.hh"

namespace perfbench
{

Tracer::Scope::Scope(Tracer &tracer, std::string name,
                     std::uint64_t group)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size()))
{
    Span span;
    span.name = std::move(name);
    span.parent = tracer.open_;
    span.group = group;
    span.startNs = tracer.nowNs();
    tracer.spans_.push_back(std::move(span));
    tracer.open_ = index_;
}

Tracer::Scope::~Scope()
{
    Span &span = tracer_.spans_[static_cast<std::size_t>(index_)];
    span.endNs = tracer_.nowNs();
    tracer_.open_ = span.parent;
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::vector<std::int64_t>
Tracer::selfNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const auto &span : spans_) {
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                span.endNs - span.startNs;
    }
    return self;
}

double
Tracer::rootSeconds() const
{
    std::int64_t ns = 0;
    for (const auto &span : spans_) {
        if (span.parent < 0)
            ns += span.endNs - span.startNs;
    }
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double>
Tracer::selfSecondsByName() const
{
    const auto self = selfNs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

obs::Json
Tracer::toJson() const
{
    const auto self = selfNs();
    obs::Json out = obs::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        obs::Json s = obs::Json::object();
        s["name"] = span.name;
        s["start_ns"] = static_cast<std::int64_t>(span.startNs);
        s["end_ns"] = static_cast<std::int64_t>(span.endNs);
        s["parent"] = static_cast<std::int64_t>(span.parent);
        s["group"] = span.group;
        s["self_ns"] = static_cast<std::int64_t>(self[i]);
        out.push(std::move(s));
    }
    return out;
}

} // namespace perfbench

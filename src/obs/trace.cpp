#include "obs/trace.hpp"

#include <algorithm>

#include "util/errors.hpp"
#include "util/json_out.hpp"

namespace hc::obs {

void Tracer::configure(std::size_t capacity) {
    util::require(capacity > 0, "Tracer::configure: capacity must be positive");
    capacity_ = capacity;
    ring_.clear();
    ring_.reserve(capacity);
    next_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    enabled_ = true;
}

TrackId Tracer::track(const std::string& name) {
    if (!enabled_) return TrackId{};
    for (std::size_t i = 0; i < tracks_.size(); ++i)
        if (tracks_[i] == name) return TrackId{static_cast<std::int32_t>(i)};
    tracks_.push_back(name);
    return TrackId{static_cast<std::int32_t>(tracks_.size() - 1)};
}

void Tracer::push(Record&& r) {
    r.seq = next_seq_++;
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(r));
        ++recorded_;
        return;
    }
    ring_[next_] = std::move(r);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
}

void Tracer::complete(TrackId track, const char* name, std::int64_t begin_ms,
                      std::int64_t end_ms, TraceArg a, TraceArg b) {
    if (!enabled_ || !track.valid()) return;
    Record r;
    r.begin_ms = begin_ms;
    r.end_ms = end_ms;
    r.name = name;
    r.track = track.id;
    r.kind = Kind::kComplete;
    r.a = a;
    r.b = b;
    push(std::move(r));
}

void Tracer::instant(TrackId track, const char* name, TraceArg a, TraceArg b) {
    if (!enabled_ || !track.valid()) return;
    Record r;
    r.begin_ms = r.end_ms = now_ms();
    r.name = name;
    r.track = track.id;
    r.kind = Kind::kInstant;
    r.a = a;
    r.b = b;
    push(std::move(r));
}

Tracer::Span::Span(Tracer* tracer, TrackId track, const char* name)
    : tracer_(tracer), track_(track), name_(name), begin_ms_(tracer->now_ms()) {
    if (tracer_->wall_time_) wall_begin_ = std::chrono::steady_clock::now();
}

Tracer::Span& Tracer::Span::operator=(Span&& o) noexcept {
    finish();
    tracer_ = o.tracer_;
    track_ = o.track_;
    name_ = o.name_;
    begin_ms_ = o.begin_ms_;
    wall_begin_ = o.wall_begin_;
    a_ = o.a_;
    b_ = o.b_;
    o.tracer_ = nullptr;
    return *this;
}

void Tracer::Span::arg(const char* key, std::int64_t value) {
    if (tracer_ == nullptr) return;
    TraceArg& slot = a_.key == nullptr ? a_ : b_;
    slot = TraceArg{key, value, nullptr};
}

void Tracer::Span::arg(const char* key, const char* value) {
    if (tracer_ == nullptr) return;
    TraceArg& slot = a_.key == nullptr ? a_ : b_;
    slot = TraceArg{key, 0, value};
}

void Tracer::Span::finish() {
    if (tracer_ == nullptr) return;
    Record r;
    r.begin_ms = begin_ms_;
    r.end_ms = tracer_->now_ms();
    r.name = name_;
    r.track = track_.id;
    r.kind = Kind::kComplete;
    r.a = a_;
    r.b = b_;
    if (tracer_->wall_time_)
        r.wall_us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - wall_begin_)
                        .count();
    tracer_->push(std::move(r));
    tracer_ = nullptr;
}

namespace {

void append_arg(std::string& out, const TraceArg& arg, bool& first) {
    if (arg.key == nullptr) return;
    if (!first) out += ", ";
    first = false;
    out += util::json_quote(arg.key);
    out += ": ";
    if (arg.str != nullptr)
        out += util::json_quote(arg.str);
    else
        out += std::to_string(arg.num);
}

}  // namespace

std::string Tracer::chrome_json() const {
    std::string out = "{\"traceEvents\": [\n";
    // Metadata first: the process row and one named thread per track.
    out += "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"dualboot-oscar\"}}";
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        out += ",\n{\"ph\": \"M\", \"pid\": 0, \"tid\": " + std::to_string(i) +
               ", \"name\": \"thread_name\", \"args\": {\"name\": " + util::json_quote(tracks_[i]) +
               "}}";
    }
    // Events in recording (seq) order. The ring stores them rotated once it
    // has wrapped; emit oldest-first so the file is stable and sorted.
    std::vector<const Record*> ordered;
    ordered.reserve(ring_.size());
    for (const Record& r : ring_) ordered.push_back(&r);
    std::sort(ordered.begin(), ordered.end(),
              [](const Record* x, const Record* y) { return x->seq < y->seq; });
    for (const Record* r : ordered) {
        out += ",\n{\"name\": " + util::json_quote(r->name);
        const std::int64_t ts_us = r->begin_ms * 1000;
        if (r->kind == Kind::kComplete) {
            const std::int64_t dur_us = (r->end_ms - r->begin_ms) * 1000;
            out += ", \"ph\": \"X\", \"ts\": " + std::to_string(ts_us) +
                   ", \"dur\": " + std::to_string(dur_us);
        } else {
            out += ", \"ph\": \"i\", \"s\": \"t\", \"ts\": " + std::to_string(ts_us);
        }
        out += ", \"pid\": 0, \"tid\": " + std::to_string(r->track) + ", \"args\": {";
        bool first = true;
        append_arg(out, r->a, first);
        append_arg(out, r->b, first);
        if (r->wall_us >= 0) {
            if (!first) out += ", ";
            first = false;
            out += "\"wall_us\": " + std::to_string(r->wall_us);
        }
        out += "}}";
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

}  // namespace hc::obs

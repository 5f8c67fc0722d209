#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/// The span currently open on this thread (0 = none); parents never cross
/// threads.
thread_local std::uint64_t tl_open_span = 0;

int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t group) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.group = group;
    span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = tl_open_span;
    span_.thread = thread_index();
    saved_parent_ = tl_open_span;
    tl_open_span = span_.id;
    span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->now_ns();
    tl_open_span = saved_parent_;
    tracer_->add(span_);
}

void Tracer::add(const Span& span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool Tracer::write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tgroup\tthread\tname\tstart_ns\tend_ns\n");
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_)
        std::fprintf(f, "%llu\t%llu\t%llu\t%d\t%s\t%lld\t%lld\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.group), s.thread, s.name,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
}

double SpanStats::percentile(double p) const { return sorted_percentile(durations_s, p); }

std::map<std::string, SpanStats> aggregate(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : spans)
        if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    std::map<std::string, SpanStats> out;
    for (const Span& s : spans) {
        SpanStats& st = out[s.name];
        const std::int64_t dur = s.end_ns - s.start_ns;
        const auto it = child_ns.find(s.id);
        const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
        ++st.count;
        st.total_s += static_cast<double>(dur) * 1e-9;
        st.self_s += static_cast<double>(self) * 1e-9;
        st.durations_s.push_back(static_cast<double>(dur) * 1e-9);
    }
    for (auto& [name, st] : out) std::sort(st.durations_s.begin(), st.durations_s.end());
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double sorted_percentile(const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0;
    const double rank = std::ceil(p * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
    return sorted[index];
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string format(const char* fmt, ...) {
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

}  // namespace perfbench

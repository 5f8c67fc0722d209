// Tests for hc::obs — the telemetry subsystem: metrics registry handles,
// sim-time tracer + Chrome-trace export, decision journal, and the scenario
// runner's end-to-end exports (schema validity, byte determinism, goldens).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "util/json_out.hpp"

namespace hc::obs {
namespace {

// ---- a minimal JSON parser (tests only) ------------------------------------
//
// Just enough of RFC 8259 to schema-check our exporters without pulling in a
// dependency: parses into a tagged tree, rejects trailing garbage. Object
// member order is not preserved (std::map) — fine for schema checks; byte
// determinism is asserted separately on the raw strings.

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    [[nodiscard]] bool has(const std::string& key) const {
        return kind == Kind::kObject && object.count(key) > 0;
    }
    [[nodiscard]] const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    /// Parse the whole input; returns nullptr on any syntax error.
    std::unique_ptr<JsonValue> parse() {
        auto value = std::make_unique<JsonValue>();
        if (!parse_value(*value)) return nullptr;
        skip_ws();
        if (pos_ != text_.size()) return nullptr;  // trailing garbage
        return value;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                       text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }
    bool eat(char c) {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }
    bool parse_literal(const char* lit) {
        const std::size_t n = std::string(lit).size();
        if (text_.compare(pos_, n, lit) != 0) return false;
        pos_ += n;
        return true;
    }
    bool parse_string(std::string& out) {
        if (!eat('"')) return false;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) return false;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return false;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_ + static_cast<std::size_t>(i)];
                        const bool hex = (h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                                         (h >= 'A' && h <= 'F');
                        if (!hex) return false;
                    }
                    pos_ += 4;
                    out += '?';  // tests never need the exact code point
                    break;
                }
                default: return false;
            }
        }
        return false;  // unterminated
    }
    bool parse_number(double& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) return false;
        try {
            std::size_t used = 0;
            out = std::stod(text_.substr(start, pos_ - start), &used);
            return used == pos_ - start;
        } catch (...) {
            return false;
        }
    }
    bool parse_value(JsonValue& out) {
        skip_ws();
        if (pos_ >= text_.size()) return false;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::kObject;
            skip_ws();
            if (eat('}')) return true;
            while (true) {
                std::string key;
                skip_ws();
                if (!parse_string(key)) return false;
                if (!eat(':')) return false;
                JsonValue member;
                if (!parse_value(member)) return false;
                out.object[key] = std::move(member);
                if (eat(',')) continue;
                return eat('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::kArray;
            skip_ws();
            if (eat(']')) return true;
            while (true) {
                JsonValue element;
                if (!parse_value(element)) return false;
                out.array.push_back(std::move(element));
                if (eat(',')) continue;
                return eat(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return parse_string(out.string);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            return parse_literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            return parse_literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::kNull;
            return parse_literal("null");
        }
        out.kind = JsonValue::Kind::kNumber;
        return parse_number(out.number);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

std::unique_ptr<JsonValue> parse_json(const std::string& text) {
    return JsonParser(text).parse();
}

/// Schema check for a Chrome trace: {"traceEvents": [...]} where every event
/// has name/ph/pid/tid, complete events carry ts+dur, instants carry scope.
void expect_valid_chrome_trace(const std::string& text) {
    const auto root = parse_json(text);
    ASSERT_NE(root, nullptr) << "chrome trace is not syntactically valid JSON";
    ASSERT_EQ(root->kind, JsonValue::Kind::kObject);
    ASSERT_TRUE(root->has("traceEvents"));
    const JsonValue& events = root->at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
    for (const JsonValue& ev : events.array) {
        ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
        ASSERT_TRUE(ev.has("name"));
        ASSERT_TRUE(ev.has("ph"));
        ASSERT_TRUE(ev.has("pid"));
        ASSERT_TRUE(ev.has("tid"));
        EXPECT_EQ(ev.at("pid").kind, JsonValue::Kind::kNumber);
        EXPECT_EQ(ev.at("tid").kind, JsonValue::Kind::kNumber);
        const std::string& ph = ev.at("ph").string;
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i") << "unexpected phase " << ph;
        if (ph == "X") {
            ASSERT_TRUE(ev.has("ts"));
            ASSERT_TRUE(ev.has("dur"));
            EXPECT_GE(ev.at("dur").number, 0.0);
        }
        if (ph == "i") {
            ASSERT_TRUE(ev.has("ts"));
            ASSERT_TRUE(ev.has("s"));
        }
        if (ph == "M") {
            ASSERT_TRUE(ev.has("args"));
        }
    }
}

// ---- JSON string helpers ---------------------------------------------------

TEST(ObsJson, QuoteEscapesFramingAndControlCharacters) {
    EXPECT_EQ(util::json_quote("plain"), "\"plain\"");
    EXPECT_EQ(util::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(util::json_quote("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(util::json_quote(std::string("nul\x01") + "end"), "\"nul\\u0001end\"");
    // Everything json_quote emits must round-trip through a JSON parser.
    const auto parsed = parse_json(util::json_quote("x\n\"\\\t\x02y"));
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->kind, JsonValue::Kind::kString);
}

// ---- metrics registry ------------------------------------------------------

TEST(ObsMetrics, DisabledRegistryHandsOutInertHandles) {
    Registry reg;  // disabled by default
    Counter c = reg.counter("x.count");
    Gauge g = reg.gauge("x.gauge");
    HistogramHandle h = reg.histogram("x.hist", 0, 10, 4);
    EXPECT_FALSE(c.live());
    EXPECT_FALSE(g.live());
    EXPECT_FALSE(h.live());
    c.inc(5);
    g.set(3.5);
    h.observe(1.0);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0.0);
    bool provider_ran = false;
    reg.add_provider([&provider_ran](Registry&) { provider_ran = true; });
    EXPECT_TRUE(reg.snapshot().empty());
    EXPECT_FALSE(provider_ran);  // disabled snapshots skip providers
}

TEST(ObsMetrics, SameNameSharesOneSlot) {
    Registry reg;
    reg.set_enabled(true);
    Counter a = reg.counter("cluster.boots");
    Counter b = reg.counter("cluster.boots");
    a.inc();
    b.inc(2);
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 3u);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].name, "cluster.boots");
    EXPECT_EQ(snap.counters[0].value, 3u);
}

TEST(ObsMetrics, SnapshotIsSortedRunsProvidersAndRendersJson) {
    Registry reg;
    reg.set_enabled(true);
    Counter zed = reg.counter("zed");
    Counter alpha = reg.counter("alpha");
    zed.inc(7);
    alpha.inc(1);
    HistogramHandle h = reg.histogram("wait_s", 0, 100, 10);
    h.observe(10);
    h.observe(30);
    reg.add_provider([](Registry& r) { r.gauge("provided.depth").set(42); });

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "alpha");  // sorted, not registration order
    EXPECT_EQ(snap.counters[1].name, "zed");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].name, "provided.depth");
    EXPECT_EQ(snap.gauges[0].value, 42.0);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 2u);
    EXPECT_DOUBLE_EQ(snap.histograms[0].mean, 20.0);
    EXPECT_DOUBLE_EQ(snap.histograms[0].min, 10.0);
    EXPECT_DOUBLE_EQ(snap.histograms[0].max, 30.0);

    const std::string json = snap.to_json();
    const auto parsed = parse_json(json);
    ASSERT_NE(parsed, nullptr) << json;
    EXPECT_EQ(parsed->at("schema").string, "hc-metrics/1");
    EXPECT_EQ(parsed->at("counters").at("zed").number, 7.0);
    EXPECT_EQ(parsed->at("gauges").at("provided.depth").number, 42.0);
    EXPECT_TRUE(parsed->at("histograms").at("wait_s").has("p95"));
}

// ---- tracer ----------------------------------------------------------------

TEST(ObsTrace, DisabledTracerIsInert) {
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    const TrackId t = tracer.track("node/enode01");
    EXPECT_FALSE(t.valid());
    {
        Tracer::Span s = tracer.span(t, "boot");
        s.arg("os", 1);
    }
    tracer.instant(t, "hang");
    tracer.complete(t, "down", 0, 10);
    EXPECT_EQ(tracer.recorded(), 0u);
    expect_valid_chrome_trace(tracer.chrome_json());  // still valid, just empty-ish
}

TEST(ObsTrace, RecordsSpansAndInstantsWithSimTimestamps) {
    Tracer tracer;
    tracer.configure(64);
    std::int64_t now = 0;
    tracer.set_clock([&now] { return now; });
    const TrackId node = tracer.track("node/enode01");
    const TrackId sched = tracer.track("pbs/sched");
    ASSERT_TRUE(node.valid());
    ASSERT_TRUE(sched.valid());
    EXPECT_EQ(tracer.track("node/enode01").id, node.id);  // re-find, not duplicate

    {
        Tracer::Span s = tracer.span(node, "boot");
        s.arg("os", "linux");
        now = 130'000;
    }  // complete event [0, 130000] ms
    now = 200'000;
    tracer.instant(sched, "cycle", TraceArg{"queued", 7, nullptr});
    EXPECT_EQ(tracer.recorded(), 2u);
    EXPECT_EQ(tracer.dropped(), 0u);

    const std::string json = tracer.chrome_json();
    expect_valid_chrome_trace(json);
    const auto root = parse_json(json);
    ASSERT_NE(root, nullptr);
    const auto& events = root->at("traceEvents").array;
    // Metadata rows for the process and both tracks precede the payload.
    int meta = 0, complete = 0, instant = 0;
    for (const auto& ev : events) {
        const std::string& ph = ev.at("ph").string;
        if (ph == "M") ++meta;
        if (ph == "X") {
            ++complete;
            EXPECT_EQ(ev.at("name").string, "boot");
            EXPECT_EQ(ev.at("ts").number, 0.0);
            EXPECT_EQ(ev.at("dur").number, 130'000.0 * 1000);  // ms -> us
            EXPECT_EQ(ev.at("args").at("os").string, "linux");
        }
        if (ph == "i") {
            ++instant;
            EXPECT_EQ(ev.at("name").string, "cycle");
            EXPECT_EQ(ev.at("ts").number, 200'000.0 * 1000);
            EXPECT_EQ(ev.at("args").at("queued").number, 7.0);
        }
    }
    EXPECT_EQ(meta, 3);  // process_name + 2 thread_name rows
    EXPECT_EQ(complete, 1);
    EXPECT_EQ(instant, 1);
}

TEST(ObsTrace, RingBoundsMemoryAndCountsDrops) {
    Tracer tracer;
    tracer.configure(4);
    const TrackId t = tracer.track("x");
    for (int i = 0; i < 10; ++i) tracer.instant(t, "tick");
    EXPECT_EQ(tracer.recorded(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    expect_valid_chrome_trace(tracer.chrome_json());
}

// ---- journal ---------------------------------------------------------------

TEST(ObsJournal, DisabledJournalEmitsNothing) {
    Journal journal;
    journal.event("decision").str("target", "linux").num("nodes", 2);
    EXPECT_TRUE(journal.text().empty());
    EXPECT_EQ(journal.lines(), 0u);
}

TEST(ObsJournal, RecordsOneJsonObjectPerLine) {
    Journal journal;
    journal.set_enabled(true);
    std::int64_t now = 300'000;
    journal.set_clock([&now] { return now; });
    journal.event("decision")
        .str("act", "switch")
        .str("reason", "queue \"stuck\"")
        .num("nodes", 2)
        .real("share", 0.25)
        .flag("dry_run", false);
    now = 301'000;
    journal.event("node.state").str("node", "enode01");
    EXPECT_EQ(journal.lines(), 2u);

    std::istringstream lines(journal.text());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "{\"t\": 300000, \"kind\": \"decision\", \"act\": \"switch\", "
              "\"reason\": \"queue \\\"stuck\\\"\", \"nodes\": 2, \"share\": 0.25, "
              "\"dry_run\": false}");
    const auto first = parse_json(line);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->at("t").number, 300'000.0);
    ASSERT_TRUE(std::getline(lines, line));
    const auto second = parse_json(line);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->at("kind").string, "node.state");
    EXPECT_FALSE(std::getline(lines, line));  // exactly two lines
}

// ---- golden: boot FSM journal ----------------------------------------------

// With jitter 0 the boot timeline is exact: firmware 35 s, Linux boot 95 s.
// This pins the journal bytes for the paper's §III boot sequence.
TEST(ObsGolden, SingleNodeBootJournal) {
    sim::Engine engine;
    engine.logger().set_min_level(util::LogLevel::kError);
    ObsOptions opts;
    opts.journal = true;
    engine.obs().configure(opts);  // before the cluster, so nodes see it

    cluster::ClusterConfig cfg;
    cfg.node_count = 1;
    cfg.timing.jitter = 0;
    cluster::Cluster cluster(engine, cfg);
    cluster::Node& node = *cluster.nodes().front();
    node.set_boot_resolver([](const cluster::Node&) {
        cluster::BootDecision d;
        d.os = cluster::OsType::kLinux;
        return d;
    });
    node.power_on();
    engine.run_all();

    EXPECT_EQ(engine.obs().journal().text(),
              "{\"t\": 0, \"kind\": \"node.state\", \"node\": \"enode01\", "
              "\"from\": \"off\", \"to\": \"firmware\"}\n"
              "{\"t\": 35000, \"kind\": \"node.state\", \"node\": \"enode01\", "
              "\"from\": \"firmware\", \"to\": \"bootloader\"}\n"
              "{\"t\": 35000, \"kind\": \"node.state\", \"node\": \"enode01\", "
              "\"from\": \"bootloader\", \"to\": \"booting-os\"}\n"
              "{\"t\": 130000, \"kind\": \"node.state\", \"node\": \"enode01\", "
              "\"from\": \"booting-os\", \"to\": \"up\"}\n");
}

// ---- scenario integration --------------------------------------------------

std::vector<workload::JobSpec> tiny_trace() {
    std::vector<workload::JobSpec> trace;
    for (int i = 0; i < 3; ++i) {
        workload::JobSpec spec;
        spec.app = "DL_POLY";
        spec.os = cluster::OsType::kLinux;
        spec.nodes = 2;
        spec.runtime = sim::minutes(30);
        spec.submit = sim::TimePoint{} + sim::minutes(10 * i);
        trace.push_back(spec);
    }
    workload::JobSpec win;
    win.app = "Opera";
    win.os = cluster::OsType::kWindows;
    win.nodes = 1;
    win.runtime = sim::minutes(30);
    win.submit = sim::TimePoint{} + sim::minutes(15);
    trace.push_back(win);
    return trace;
}

core::ScenarioConfig obs_scenario_config() {
    core::ScenarioConfig cfg;
    cfg.kind = core::ScenarioKind::kBiStableHybrid;
    cfg.node_count = 8;
    cfg.linux_nodes = 8;  // Windows job forces a real switch -> journal traffic
    cfg.horizon = sim::hours(8);
    cfg.obs.metrics = true;
    cfg.obs.trace = true;
    cfg.obs.journal = true;
    return cfg;
}

TEST(ObsScenario, DisabledByDefaultAndResultStaysEmpty) {
    core::ScenarioConfig cfg = obs_scenario_config();
    cfg.obs = ObsOptions{};  // all channels off
    const auto result = core::run_scenario(cfg, tiny_trace());
    EXPECT_TRUE(result.metrics.empty());
    EXPECT_TRUE(result.chrome_trace_json.empty());
    EXPECT_TRUE(result.journal_jsonl.empty());
}

TEST(ObsScenario, ExportsAreSchemaValidAndPopulated) {
    const auto result = core::run_scenario(obs_scenario_config(), tiny_trace());

    // Chrome trace: syntactically valid, schema-conformant, mentions a node
    // track and at least one boot span.
    expect_valid_chrome_trace(result.chrome_trace_json);
    EXPECT_NE(result.chrome_trace_json.find("\"node/enode01\""), std::string::npos);
    EXPECT_NE(result.chrome_trace_json.find("\"boot\""), std::string::npos);

    // Journal: every line parses as an object with "t" and "kind"; the run
    // includes detector verdicts and the switch-order lifecycle.
    std::istringstream lines(result.journal_jsonl);
    std::string line;
    std::size_t count = 0;
    bool saw_detector = false, saw_decision = false, saw_node_state = false;
    while (std::getline(lines, line)) {
        ++count;
        const auto record = parse_json(line);
        ASSERT_NE(record, nullptr) << "bad journal line: " << line;
        ASSERT_TRUE(record->has("t")) << line;
        ASSERT_TRUE(record->has("kind")) << line;
        const std::string& kind = record->at("kind").string;
        saw_detector |= kind == "detector";
        saw_decision |= kind == "decision";
        saw_node_state |= kind == "node.state";
    }
    EXPECT_GT(count, 10u);
    EXPECT_TRUE(saw_detector);
    EXPECT_TRUE(saw_decision);
    EXPECT_TRUE(saw_node_state);

    // Metrics: populated, and the headline counters track the summary.
    ASSERT_FALSE(result.metrics.empty());
    const auto parsed = parse_json(result.metrics.to_json());
    ASSERT_NE(parsed, nullptr);
    EXPECT_EQ(parsed->at("schema").string, "hc-metrics/1");
    EXPECT_EQ(parsed->at("counters").at("workload.jobs.submitted").number, 4.0);
    EXPECT_EQ(parsed->at("counters").at("workload.jobs.completed").number,
              static_cast<double>(result.summary.completed));
    EXPECT_EQ(parsed->at("counters").at("cluster.os_switches").number,
              static_cast<double>(result.summary.os_switches));
}

TEST(ObsScenario, SameSeedRunsExportIdenticalBytes) {
    const auto a = core::run_scenario(obs_scenario_config(), tiny_trace());
    const auto b = core::run_scenario(obs_scenario_config(), tiny_trace());
    EXPECT_EQ(a.chrome_trace_json, b.chrome_trace_json);
    EXPECT_EQ(a.journal_jsonl, b.journal_jsonl);
    EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
    EXPECT_FALSE(a.chrome_trace_json.empty());
    EXPECT_FALSE(a.journal_jsonl.empty());
}

}  // namespace
}  // namespace hc::obs

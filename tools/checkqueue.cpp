// checkqueue — the standalone detector, mirroring the paper's
// /dualboot/checkqueue.pl (§III.B.4, Fig 6).
//
// Reads `qstat -f` output from a file (or stdin) and prints the detector's
// wire record plus the Fig 6 debug block — or, with --json, a structured
// object for scripting. Exit status either way: 0 = other/running,
// 2 = queue stuck (so shell scripts can branch on it).
//
//   usage: checkqueue [--json] [qstat_f_output.txt] [pbsnodes_output.txt]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/detector.hpp"
#include "util/status_json.hpp"
#include "util/time_format.hpp"

namespace {

std::string read_all(std::istream& in) {
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string read_file_or_die(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "checkqueue: cannot open %s\n", path);
        std::exit(1);
    }
    return read_all(in);
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    int arg = 1;
    if (arg < argc && std::strcmp(argv[arg], "--json") == 0) {
        json = true;
        ++arg;
    }
    std::string qstat_text;
    std::string pbsnodes_text;
    if (arg < argc) {
        qstat_text = read_file_or_die(argv[arg++]);
    } else {
        qstat_text = read_all(std::cin);
    }
    if (arg < argc) pbsnodes_text = read_file_or_die(argv[arg]);

    hc::core::PbsDetector detector(
        [&qstat_text] { return qstat_text; }, [&pbsnodes_text] { return pbsnodes_text; },
        [] { return hc::util::default_sim_epoch(); });
    const hc::core::QueueSnapshot snap = detector.check();
    if (json) {
        // Rendered by the shared helper so the field names stay in lockstep
        // with hc::serve's checkqueue responses (one schema, one writer).
        hc::util::QueueStatusFields fields;
        fields.stuck = snap.record.stuck;
        fields.needed_cpus = snap.record.needed_cpus;
        fields.stuck_job = snap.record.stuck_job_id;
        fields.running = snap.running;
        fields.queued = snap.queued;
        fields.idle_nodes = snap.idle_nodes;
        fields.wire = snap.record.encode();
        const std::string out =
            hc::util::render_queue_status_json("hc-checkqueue/1", fields) + "\n";
        std::fputs(out.c_str(), stdout);
    } else {
        std::fputs(detector.fig6_text().c_str(), stdout);
    }
    return snap.record.stuck ? 2 : 0;
}

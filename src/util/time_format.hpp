// Civil-time formatting for simulated clocks.
//
// The simulation measures time as seconds since a configurable epoch. PBS and
// the dualboot-oscar daemons print wall-clock dates (qstat's
// "Fri Apr 16 17:55:40 2010", the detector's "2010 04 17 20 11 12"), so the
// text layers need real calendar math. The default epoch is midnight
// 2010-04-16 UTC — the date of the paper's qstat listing (Fig 8).
#pragma once

#include <cstdint>
#include <string>

namespace hc::util {

/// A broken-down civil date/time (proleptic Gregorian, no timezone).
struct CivilTime {
    int year = 1970;
    int month = 1;  ///< 1..12
    int day = 1;    ///< 1..31
    int hour = 0;
    int minute = 0;
    int second = 0;
    int weekday = 4;  ///< 0 = Sunday .. 6 = Saturday (1970-01-01 was a Thursday)
};

/// Seconds from the Unix epoch to midnight of the given civil date.
[[nodiscard]] std::int64_t civil_to_unix(int year, int month, int day, int hour = 0,
                                         int minute = 0, int second = 0);

/// Break a Unix timestamp into civil fields.
[[nodiscard]] CivilTime unix_to_civil(std::int64_t unix_seconds);

/// Epoch used to translate simulated seconds into calendar dates.
/// 2010-04-16 00:00:00, matching the paper's logs.
[[nodiscard]] std::int64_t default_sim_epoch();

/// "Fri Apr 16 17:55:40 2010" — the format qstat -f uses for qtime (Fig 8).
[[nodiscard]] std::string format_pbs_time(std::int64_t unix_seconds);

/// format_pbs_time appended to `out` (the qstat -f renderer's reused buffer).
void append_pbs_time(std::string& out, std::int64_t unix_seconds);

/// "2010 04 17 20 11 12" — the format the PBS detector prints (Fig 6).
[[nodiscard]] std::string format_detector_time(std::int64_t unix_seconds);

/// "4d 03:25:17" / "03:25:17" — human-readable duration for bench output.
[[nodiscard]] std::string format_duration(std::int64_t seconds);

/// Three-letter weekday / month names ("Fri", "Apr").
[[nodiscard]] const char* weekday_name(int weekday);
[[nodiscard]] const char* month_name(int month);

}  // namespace hc::util

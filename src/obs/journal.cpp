#include "obs/journal.hpp"

#include "util/json_out.hpp"

namespace hc::obs {

Journal::Record Journal::event(std::string_view kind) {
    if (!enabled_) return Record{nullptr, std::string{}};
    std::string line = "{\"t\": " + std::to_string(clock_ ? clock_() : 0) +
                       ", \"kind\": " + util::json_quote(kind);
    return Record{this, std::move(line)};
}

Journal::Record::~Record() {
    if (journal_ == nullptr) return;
    journal_->text_ += line_;
    journal_->text_ += "}\n";
    ++journal_->lines_;
}

Journal::Record& Journal::Record::str(std::string_view key, std::string_view value) {
    if (journal_ != nullptr)
        line_ += ", " + util::json_quote(key) + ": " + util::json_quote(value);
    return *this;
}

Journal::Record& Journal::Record::num(std::string_view key, std::int64_t value) {
    if (journal_ != nullptr)
        line_ += ", " + util::json_quote(key) + ": " + std::to_string(value);
    return *this;
}

Journal::Record& Journal::Record::real(std::string_view key, double value) {
    if (journal_ != nullptr)
        line_ += ", " + util::json_quote(key) + ": " + util::json_number(value);
    return *this;
}

Journal::Record& Journal::Record::flag(std::string_view key, bool value) {
    if (journal_ != nullptr)
        line_ += ", " + util::json_quote(key) + ": " + (value ? "true" : "false");
    return *this;
}

}  // namespace hc::obs

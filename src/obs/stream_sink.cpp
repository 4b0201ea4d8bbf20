#include "obs/stream_sink.hpp"

#include <utility>

#include "obs/json.hpp"
#include "support/require.hpp"

namespace pitfalls::obs {

StreamingReporter::StreamingReporter(std::vector<std::string> prefixes)
    : prefixes_(std::move(prefixes)) {
  PITFALLS_REQUIRE(!prefixes_.empty(),
                   "streaming reporter needs at least one counter prefix");
  for (const auto& [name, value] :
       MetricsRegistry::global().counter_values()) {
    if (in_scope(name)) last_[name] = value;
  }
}

bool StreamingReporter::in_scope(const std::string& name) const {
  for (const std::string& prefix : prefixes_) {
    if (name.size() >= prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0)
      return true;
  }
  return false;
}

std::string StreamingReporter::emit_delta(std::string_view scope) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("type").value("obs");
  writer.key("scope").value(scope);
  writer.key("counters").begin_object();
  bool changed = false;
  for (const auto& [name, value] :
       MetricsRegistry::global().counter_values()) {
    if (!in_scope(name)) continue;
    const auto it = last_.find(name);
    const std::uint64_t previous = it == last_.end() ? 0 : it->second;
    if (value == previous) continue;
    // Counters are monotone (Counter::add only); a reset_values() between
    // emits would make value < previous, which we clamp to a fresh baseline
    // rather than emitting a negative delta.
    if (value > previous) {
      writer.key(name).value(value - previous);
      changed = true;
    }
    last_[name] = value;
  }
  writer.end_object();
  writer.end_object();
  return changed ? std::move(writer).str() : std::string();
}

}  // namespace pitfalls::obs

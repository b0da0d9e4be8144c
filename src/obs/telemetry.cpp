#include "obs/telemetry.h"

#include <cstdio>

#include "common/json.h"

namespace rapar::obs {

Telemetry::Entry& Telemetry::Upsert(std::string_view name, bool is_gauge) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return entries_[it->second];
  entries_.push_back(Entry{std::string(name), is_gauge, 0, 0.0});
  index_.emplace(entries_.back().name, entries_.size() - 1);
  return entries_.back();
}

const Telemetry::Entry* Telemetry::Lookup(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? nullptr : &entries_[it->second];
}

void Telemetry::SetCounter(std::string_view name, std::uint64_t value) {
  Entry& e = Upsert(name, /*is_gauge=*/false);
  e.is_gauge = false;
  e.counter = value;
}

std::uint64_t Telemetry::counter(std::string_view name) const {
  const Entry* e = Lookup(name);
  return e == nullptr ? 0 : e->counter;
}

void Telemetry::SetGauge(std::string_view name, double value) {
  Entry& e = Upsert(name, /*is_gauge=*/true);
  e.is_gauge = true;
  e.gauge = value;
}

double Telemetry::gauge(std::string_view name) const {
  const Entry* e = Lookup(name);
  return e == nullptr ? 0.0 : e->gauge;
}

bool Telemetry::Has(std::string_view name) const {
  return Lookup(name) != nullptr;
}

void Telemetry::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  for (const Entry& e : entries_) {
    w.Key(e.name);
    if (e.is_gauge) {
      w.Double(e.gauge);
    } else {
      w.UInt(e.counter);
    }
  }
  w.EndObject();
}

std::string Telemetry::ToString() const {
  std::string out;
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ' ';
    out += e.name;
    out += '=';
    if (e.is_gauge) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.3f", e.gauge);
      out += buf;
    } else {
      out += std::to_string(e.counter);
    }
  }
  return out;
}

}  // namespace rapar::obs

#include "db/value.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mwsim::db {

std::int64_t Value::asInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) {
    // Out-of-range doubles saturate, as MySQL's conversion does; NaN has no
    // integer value and reads as 0. Both cases would be UB for the cast.
    if (std::isnan(*d)) return 0;
    if (*d >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
    if (*d < -0x1p63) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(*d);
  }
  throw std::runtime_error("Value::asInt on non-numeric value");
}

double Value::asDouble() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  throw std::runtime_error("Value::asDouble on non-numeric value");
}

const std::string& Value::asString() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  throw std::runtime_error("Value::asString on non-string value");
}

std::string Value::toDisplayString() const {
  if (isNull()) return "NULL";
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v_)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", *d);
    return buf;
  }
  return std::get<std::string>(v_);
}

namespace {
// Type ranks for cross-type ordering: NULL < numeric < string.
int rank(const Value& v) {
  if (v.isNull()) return 0;
  if (v.isNumeric()) return 1;
  return 2;
}

template <typename T>
int threeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Orders two doubles; NaN equals NaN and sorts below every other number.
int compareDoubles(double a, double b) {
  const bool na = std::isnan(a);
  const bool nb = std::isnan(b);
  if (na || nb) return threeWay(nb, na);
  return threeWay(a, b);
}

/// Orders an int against a double by exact value. Converting the int to
/// double would round past 2^53 and make ints that differ equal to one
/// double, which breaks transitivity.
int compareIntDouble(std::int64_t i, double d) {
  if (std::isnan(d)) return 1;
  if (d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const double whole = std::trunc(d);  // in range: converts exactly
  const auto t = static_cast<std::int64_t>(whole);
  if (i != t) return threeWay(i, t);
  return threeWay(whole, d);  // i == trunc(d): the fraction decides
}
}  // namespace

int Value::compare(const Value& other) const {
  const int ra = rank(*this);
  const int rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      const auto* ia = std::get_if<std::int64_t>(&v_);
      const auto* ib = std::get_if<std::int64_t>(&other.v_);
      if (ia && ib) return threeWay(*ia, *ib);
      if (ia) return compareIntDouble(*ia, std::get<double>(other.v_));
      if (ib) return -compareIntDouble(*ib, std::get<double>(v_));
      return compareDoubles(std::get<double>(v_), std::get<double>(other.v_));
    }
    default: {
      const int c = asString().compare(other.asString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::size_t Value::hash() const {
  if (isNull()) return 0x9E3779B9u;
  if (isString()) return std::hash<std::string>{}(std::get<std::string>(v_));
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return std::hash<std::int64_t>{}(*i);
  // compare() equates an int with a double only when the double is exactly
  // that integer, so an integral double inside the int64 range (-0.0
  // included) hashes as the integer; the range check keeps the conversion
  // defined. Every NaN compares equal, whatever its bits.
  const double d = std::get<double>(v_);
  if (std::isnan(d)) return 0x7FF8000000000000ull;
  if (d >= -0x1p63 && d < 0x1p63 && std::trunc(d) == d) {
    return std::hash<std::int64_t>{}(static_cast<std::int64_t>(d));
  }
  return std::hash<double>{}(d);
}

std::size_t Value::byteSize() const {
  if (isNull()) return 1;
  if (isString()) return std::get<std::string>(v_).size();
  return 8;
}

}  // namespace mwsim::db

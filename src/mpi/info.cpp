#include "mpi/info.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>

#include "sim/contracts.hpp"

namespace calciom::mpi {

namespace {

using Length = std::uint32_t;
constexpr std::size_t kHeader = 2 * sizeof(Length);

struct Entry {
  std::string_view key;
  std::string_view value;
  std::size_t next;  ///< offset of the following entry
};

Entry entryAt(const std::string& buf, std::size_t pos) noexcept {
  Length lens[2];
  std::memcpy(lens, buf.data() + pos, sizeof lens);
  const char* key = buf.data() + pos + kHeader;
  return Entry{{key, lens[0]},
               {key + lens[0], lens[1]},
               pos + kHeader + lens[0] + lens[1] + 1};
}

Length checkedLength(std::string_view s) {
  CALCIOM_EXPECTS(s.size() <= std::numeric_limits<Length>::max());
  return static_cast<Length>(s.size());
}

bool pointsInto(std::string_view s, const std::string& buf) noexcept {
  const std::less<const char*> before;
  return !before(s.data(), buf.data()) &&
         before(s.data(), buf.data() + buf.size());
}

/// strtoll/strtod on a stored value, in place: the layout NUL-terminates
/// every value. No conversion, or ERANGE, is nullopt.
std::optional<std::int64_t> parseInt(const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(parsed);
}

std::optional<double> parseDouble(const char* text) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || errno == ERANGE) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

Info::Slot Info::find(std::string_view key) const noexcept {
  std::size_t pos = 0;
  while (pos < buf_.size()) {
    const Entry e = entryAt(buf_, pos);
    const int c = e.key.compare(key);
    if (c >= 0) {
      return Slot{pos, c == 0};
    }
    pos = e.next;
  }
  return Slot{pos, false};
}

void Info::set(std::string_view key, std::string_view value) {
  if (pointsInto(key, buf_) || pointsInto(value, buf_)) {
    // A view into our own buffer (info.set(a, *info.get(b))) would dangle
    // once the buffer moves; detach it first.
    const std::string k(key);
    const std::string v(value);
    set(k, v);
    return;
  }
  const Length valueLen = checkedLength(value);
  const Slot slot = find(key);
  if (slot.found) {
    const Entry e = entryAt(buf_, slot.pos);
    buf_.replace(slot.pos + kHeader + e.key.size(), e.value.size(), value);
    std::memcpy(buf_.data() + slot.pos + sizeof(Length), &valueLen,
                sizeof valueLen);
    return;
  }
  const Length keyLen = checkedLength(key);
  const std::size_t need = kHeader + key.size() + value.size() + 1;
  buf_.insert(slot.pos, need, '\0');  // the last of these is the value's NUL
  char* p = buf_.data() + slot.pos;
  std::memcpy(p, &keyLen, sizeof keyLen);
  std::memcpy(p + sizeof keyLen, &valueLen, sizeof valueLen);
  std::memcpy(p + kHeader, key.data(), key.size());
  std::memcpy(p + kHeader + key.size(), value.data(), value.size());
}

void Info::setInt(std::string_view key, std::int64_t v) {
  char text[24];
  const auto res = std::to_chars(text, text + sizeof text, v);
  set(key, std::string_view(text, static_cast<std::size_t>(res.ptr - text)));
}

void Info::setDouble(std::string_view key, double v) {
  // std::to_string(double)'s own format, without its allocation. 400 bytes
  // cover DBL_MAX's 309 integer digits. (std::to_chars prints the same
  // characters, but touching its tables adds ~0.15 MB of resident set.)
  char text[400];
  const int n = std::snprintf(text, sizeof text, "%f", v);
  set(key, std::string_view(text, static_cast<std::size_t>(n)));
}

std::optional<std::string_view> Info::get(std::string_view key) const {
  const Slot slot = find(key);
  if (!slot.found) {
    return std::nullopt;
  }
  return entryAt(buf_, slot.pos).value;
}

std::optional<std::int64_t> Info::getInt(std::string_view key) const {
  const auto v = get(key);
  return v ? parseInt(v->data()) : std::nullopt;
}

std::optional<double> Info::getDouble(std::string_view key) const {
  const auto v = get(key);
  return v ? parseDouble(v->data()) : std::nullopt;
}

void Info::erase(std::string_view key) {
  const Slot slot = find(key);
  if (slot.found) {
    buf_.erase(slot.pos, entryAt(buf_, slot.pos).next - slot.pos);
  }
}

std::size_t Info::size() const noexcept {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < buf_.size(); pos = entryAt(buf_, pos).next) {
    ++n;
  }
  return n;
}

std::vector<std::string> Info::keys() const {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < buf_.size();) {
    const Entry e = entryAt(buf_, pos);
    out.emplace_back(e.key);
    pos = e.next;
  }
  return out;
}

void Info::merge(const Info& other) {
  if (&other == this) {
    return;
  }
  for (std::size_t pos = 0; pos < other.buf_.size();) {
    const Entry e = entryAt(other.buf_, pos);
    set(e.key, e.value);
    pos = e.next;
  }
}

}  // namespace calciom::mpi

#pragma once

/// \file info.hpp
/// MPI_Info-style string key/value dictionary. The paper's CALCioM API is
/// deliberately generic: applications describe their upcoming I/O through an
/// MPI_Info handed to Prepare(). We mirror that: descriptors exchanged
/// between applications are serialized to/from Info objects, and every
/// coordination message carries one.
///
/// Layout: one contiguous byte buffer holds every entry, sorted by key
/// (byte-wise, the order std::string compares in). An entry is
///
///     [u32 key length][u32 value length][key bytes][value bytes]['\0']
///
/// with the lengths in host byte order. The buffer is canonical — sorted,
/// unique keys, no slack between entries — so `operator==` is a byte
/// comparison, `keys()` and `merge` see the same order a std::map would,
/// and copying an Info costs one allocation however many entries it holds
/// (the capture log and Inform retransmission copy one per message). The
/// NUL after each value lets the numeric getters hand it to strtoll/strtod
/// in place.
///
/// Rule: lookups never allocate. Every accessor takes `std::string_view`,
/// so looking a key up through a `const char*` constant (msg::k*,
/// IoDescriptor::k*) builds no temporary std::string, whatever its length;
/// `get` returns a view into the buffer, valid until the next mutation of
/// this Info; and the numeric getters parse in place. Only mutations
/// (set*, erase, merge) may grow the buffer.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace calciom::mpi {

class Info {
 public:
  Info() = default;

  void set(std::string_view key, std::string_view value);
  void setInt(std::string_view key, std::int64_t v);
  /// Formats like std::to_string(double): printf's "%f", 6 decimals.
  void setDouble(std::string_view key, double v);

  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view key) const;
  /// strtoll base-10 rules: leading spaces and sign accepted, trailing
  /// garbage ignored; nullopt when absent, empty, or out of range.
  [[nodiscard]] std::optional<std::int64_t> getInt(std::string_view key) const;
  /// strtod rules, with the same nullopt cases (ERANGE included).
  [[nodiscard]] std::optional<double> getDouble(std::string_view key) const;

  /// Value access with a fallback, for optional descriptor fields.
  [[nodiscard]] std::int64_t getIntOr(std::string_view key,
                                      std::int64_t fallback) const {
    const auto v = getInt(key);
    return v ? *v : fallback;
  }
  [[nodiscard]] double getDoubleOr(std::string_view key,
                                   double fallback) const {
    const auto v = getDouble(key);
    return v ? *v : fallback;
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return find(key).found;
  }
  void erase(std::string_view key);
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Merges `other` into this (other's values win on conflict).
  void merge(const Info& other);

  bool operator==(const Info&) const = default;

 private:
  /// Where `key` is, or where it would be inserted: the offset of the
  /// first entry whose key is not less than `key` (buf_.size() if none).
  struct Slot {
    std::size_t pos;
    bool found;
  };
  [[nodiscard]] Slot find(std::string_view key) const noexcept;

  std::string buf_;  // the entries, in the layout described above
};

}  // namespace calciom::mpi

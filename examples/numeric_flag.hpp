/// \file numeric_flag.hpp
/// \brief Strict parsing of the numeric command-line flags of check_qasm and
///        veriqcd.
#pragma once

#include <charconv>
#include <cstdlib>
#include <string_view>
#include <system_error>

namespace veriqc::examples {

/// Read the value of the numeric flag at argv[i] into `out` and step `i` past
/// it. The whole of argv[i + 1] must be a non-negative decimal integer that
/// `out`'s type can hold: no sign, blank or trailing character. A missing
/// value or anything else prints `usage` and exits with code 3, so "abc"
/// never reads as 0 and "-1" never wraps to a huge count.
template <typename T>
void readNumericFlag(int& i, const int argc, char** argv, T& out,
                     void (*usage)(const char*)) {
  if (i + 1 < argc) {
    const std::string_view text = argv[i + 1];
    const char* const end = text.data() + text.size();
    T value{};
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    // from_chars takes a leading minus sign when T is signed.
    if (!text.starts_with('-') && error == std::errc{} && stop == end) {
      out = value;
      ++i;
      return;
    }
  }
  usage(argv[0]);
  std::exit(3);
}

} // namespace veriqc::examples

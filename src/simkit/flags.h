// Strict `--name=value` command-line flags, shared by every binary in the repository.
//
// A flag is looked up by its full prefix, `=` included ("--port="); the first occurrence
// wins, except for FlagStrings, which collects every occurrence. Numbers parse with
// std::from_chars over the whole value: an empty value, trailing garbage or an out-of-range
// number throws FlagError naming the flag, which binaries report and turn into exit status 2,
// instead of silently reading `--port=abc` as port 0.
#ifndef SRC_SIMKIT_FLAGS_H_
#define SRC_SIMKIT_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace simkit {

class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// The value after `prefix` of the first argument starting with it, or nullopt.
inline std::optional<std::string_view> FlagString(int argc, char** argv,
                                                  std::string_view prefix) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.starts_with(prefix)) {
      return arg.substr(prefix.size());
    }
  }
  return std::nullopt;
}

// The values of every argument starting with `prefix`, in argv order.
inline std::vector<std::string_view> FlagStrings(int argc, char** argv,
                                                 std::string_view prefix) {
  std::vector<std::string_view> values;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.starts_with(prefix)) {
      values.push_back(arg.substr(prefix.size()));
    }
  }
  return values;
}

// Parses all of `value` as a T; throws FlagError naming `prefix` otherwise.
template <typename T>
T ParseFlag(std::string_view prefix, std::string_view value) {
  T parsed{};
  const char* end = value.data() + value.size();
  auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || error != std::errc() || stop != end) {
    throw FlagError(std::string(prefix) + std::string(value) + ": " +
                    (error == std::errc::result_out_of_range ? "out of range"
                                                             : "not a number"));
  }
  return parsed;
}

inline int64_t FlagInt(int argc, char** argv, std::string_view prefix, int64_t fallback) {
  std::optional<std::string_view> value = FlagString(argc, argv, prefix);
  return value ? ParseFlag<int64_t>(prefix, *value) : fallback;
}

inline double FlagDouble(int argc, char** argv, std::string_view prefix, double fallback) {
  std::optional<std::string_view> value = FlagString(argc, argv, prefix);
  return value ? ParseFlag<double>(prefix, *value) : fallback;
}

// True when the bare flag (e.g. "--worker") is present exactly.
inline bool HasFlag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// Throws FlagError naming the first argument that is neither one of `bare` exactly nor
// starts with one of `valued` (each spelled with its `=`), with the valid spellings: a
// typo'd or retired flag fails loudly instead of being silently ignored.
inline void CheckKnownFlags(int argc, char** argv,
                            std::initializer_list<std::string_view> valued,
                            std::initializer_list<std::string_view> bare) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    bool known = false;
    for (std::string_view flag : bare) {
      known = known || arg == flag;
    }
    for (std::string_view flag : valued) {
      known = known || arg.starts_with(flag);
    }
    if (!known) {
      std::string message = "unknown flag " + std::string(arg) + "; valid flags:";
      for (std::string_view flag : bare) {
        message += " " + std::string(flag);
      }
      for (std::string_view flag : valued) {
        message += " " + std::string(flag) + "N";
      }
      throw FlagError(message);
    }
  }
}

}  // namespace simkit

#endif  // SRC_SIMKIT_FLAGS_H_

#include "src/report/fault_injection.hpp"

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "src/core/record_file.hpp"

namespace csim {

namespace {

/// splitmix64: a tiny, well-mixed stateless generator. Counter-based use
/// (hash of seed/digest/attempt) keeps fault decisions independent of
/// scheduling — the property the whole harness rests on.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic coin in [0, 1) for (seed, digest, attempt).
double coin(std::uint64_t seed, std::uint64_t digest,
            unsigned attempt) noexcept {
  std::uint64_t h = splitmix64(seed ^ splitmix64(digest));
  h = splitmix64(h ^ attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool applies(const FaultSpec& f, unsigned attempt) noexcept {
  return f.fail_attempts == 0 || attempt <= f.fail_attempts;
}

[[noreturn]] void bad(const std::string& origin, std::size_t line,
                      const std::string& what) {
  throw ConfigError("fault plan " + origin + ":" + std::to_string(line) +
                    ": " + what);
}

double parse_double(const std::string& tok, const std::string& origin,
                    std::size_t line, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE) {
    bad(origin, line, std::string(what) + ": not a number: '" + tok + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& tok, const std::string& origin,
                        std::size_t line, const char* what, int base) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE) {
    bad(origin, line, std::string(what) + ": not a number: '" + tok + "'");
  }
  return v;
}

}  // namespace

void FaultPlan::add(std::uint64_t config_digest, const FaultSpec& spec) {
  by_digest_[config_digest].push_back(spec);
}

void FaultPlan::add_wildcard(const FaultSpec& spec) {
  wildcard_.push_back(spec);
}

std::optional<FaultSpec> FaultPlan::lookup(std::uint64_t config_digest,
                                           unsigned attempt) const {
  const auto pick = [&](const std::vector<FaultSpec>& specs)
      -> std::optional<FaultSpec> {
    for (const FaultSpec& f : specs) {
      if (!applies(f, attempt)) continue;
      if (f.probability < 1.0 &&
          coin(seed_, config_digest, attempt) >= f.probability) {
        continue;
      }
      return f;
    }
    return std::nullopt;
  };
  if (auto it = by_digest_.find(config_digest); it != by_digest_.end()) {
    if (auto f = pick(it->second)) return f;
  }
  return pick(wildcard_);
}

FaultPlan FaultPlan::parse(std::string_view text, const std::string& origin) {
  FaultPlan plan;
  std::istringstream is{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::vector<std::string> tok;
    for (std::string t; tokens >> t;) tok.push_back(t);
    if (tok.empty()) continue;

    if (tok[0] == "seed") {
      if (tok.size() != 2) bad(origin, lineno, "seed takes one value");
      plan.set_seed(parse_u64(tok[1], origin, lineno, "seed", 10));
      continue;
    }
    if (tok.size() < 2) {
      bad(origin, lineno, "expected '<digest|*> <action> ...'");
    }
    const bool wildcard = tok[0] == "*";
    const std::uint64_t digest =
        wildcard ? 0 : parse_u64(tok[0], origin, lineno, "config digest", 16);

    FaultSpec f;
    const std::string& action = tok[1];
    if (action == "throw") {
      if (tok.size() < 3 || tok.size() > 5) {
        bad(origin, lineno, "throw takes: <kind> [attempts] [probability]");
      }
      f.action = FaultSpec::Action::Throw;
      try {
        f.error = sim_error_kind_from_string(tok[2]);
      } catch (const std::invalid_argument& e) {
        bad(origin, lineno, e.what());
      }
      if (tok.size() >= 4) {
        f.fail_attempts = static_cast<unsigned>(
            parse_u64(tok[3], origin, lineno, "attempts", 10));
      }
      if (tok.size() == 5) {
        f.probability = parse_double(tok[4], origin, lineno, "probability");
      }
    } else if (action == "stall") {
      if (tok.size() != 3) bad(origin, lineno, "stall takes: <seconds>");
      f.action = FaultSpec::Action::Stall;
      f.stall_seconds = parse_double(tok[2], origin, lineno, "seconds");
      if (f.stall_seconds < 0) bad(origin, lineno, "seconds must be >= 0");
    } else if (action == "torn-write") {
      if (tok.size() > 3) bad(origin, lineno, "torn-write takes: [keep]");
      f.action = FaultSpec::Action::TornWrite;
      if (tok.size() == 3) {
        f.keep_fraction = parse_double(tok[2], origin, lineno, "keep");
        if (f.keep_fraction < 0 || f.keep_fraction > 1) {
          bad(origin, lineno, "keep must be in [0, 1]");
        }
      }
    } else {
      bad(origin, lineno, "unknown action '" + action +
                              "' (expected throw, stall, or torn-write)");
    }
    if (f.probability < 0 || f.probability > 1) {
      bad(origin, lineno, "probability must be in [0, 1]");
    }
    if (wildcard) {
      plan.add_wildcard(f);
    } else {
      plan.add(digest, f);
    }
  }
  return plan;
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw ConfigError("fault plan: cannot open " + path);
  return parse(*text, path);
}

}  // namespace csim

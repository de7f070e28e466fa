#ifndef DLSYS_BENCH_REPORT_H_
#define DLSYS_BENCH_REPORT_H_

/// \file report.h
/// \brief The one report writer every bench binary prints through.
///
/// A bench declares each table once: per column a name, a printf format
/// holding exactly one conversion (literal text around it is allowed),
/// and a tag. kExact marks a figure that replays bit for bit: an
/// accuracy, a loss, a byte count, a count, a simulated quantity. kWall
/// marks a figure that reads a timer or is computed from one, including
/// a "simulated" time that folds in measured compute. A column is exact
/// unless tagged kWall, so a timer figure left untagged fails its claims
/// test on the next run instead of escaping the digest.
///
/// Rows and prose print as the bench adds them, and Finish() writes
/// BENCH_<name>.json and ends the run with the line
///
///   claims bench_<name> fnv1a64=0x<16 hex digits> exact=<count>
///
/// whose digest is FNV-1a over every table and column name and the
/// printed text of every exact figure (count of them). No wall figure
/// enters it, so it reads the same at any DLSYS_THREADS, on every kernel
/// table, under any DLSYS_PASSES and in every build; the claims.* ctests
/// compare it with tests/golden/claims.txt.
///
/// The JSON file holds the claims and each table's name, its columns
/// with their tags, and its rows as printed: a figure as a JSON number
/// when its text is one, any other as a string, and a cell that a short
/// row left out as null.

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/status.h"

namespace dlsys::bench {

enum class Tag { kExact, kWall };
inline constexpr Tag kExact = Tag::kExact;
inline constexpr Tag kWall = Tag::kWall;

/// \brief One column. \p head, a printf format applied to the name,
/// overrides the header cell: null derives it (the name padded to the
/// cell's width), "" leaves the column out of the header line.
struct Column {
  std::string name;
  std::string format;
  Tag tag = kExact;
  const char* head = nullptr;
};

/// \brief printf into a std::string.
[[gnu::format(printf, 1, 2)]] inline std::string Format(const char* fmt,
                                                        ...) {
  va_list args, copy;
  va_start(args, fmt);
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// \brief Writes \p text to \p path. On failure, says so on stderr and
/// returns false.
inline bool WriteFile(const std::string& path, const std::string& text) {
  FILE* file = std::fopen(path.c_str(), "w");
  bool ok = file != nullptr &&
            std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (file != nullptr && std::fclose(file) != 0) ok = false;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

/// \brief True when \p flag is one of the command-line arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  return std::any_of(argv + 1, argv + argc,
                     [flag](const char* a) { return !std::strcmp(a, flag); });
}

/// \brief The argument after \p flag, or null when there is none.
inline const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// \brief Median of 5 repetitions of the wall time, in ms per call, of
/// `iters` back-to-back calls to \p fn.
template <typename Fn>
double MedianMs(int iters, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    Stopwatch watch;
    for (int it = 0; it < iters; ++it) fn();
    reps.push_back(watch.Seconds() * 1000.0 / iters);
  }
  std::sort(reps.begin(), reps.end());
  return reps[2];
}

class Report;

/// \brief A declared table; rows print as they are added.
class Table {
 public:
  /// \brief A cell: an integer (d/i/u/x conversions), a floating value
  /// (f/e/g) or text (s). Text in a numeric column, a marker such as "-",
  /// prints padded to the cell's width.
  struct Value {
    template <typename T>
    Value(const T& v) {  // NOLINT: implicit, so a row reads as a list
      if constexpr (std::is_integral_v<T>) kind = 'i', i = v;
      else if constexpr (std::is_floating_point_v<T>) kind = 'f', f = v;
      else kind = 's', s = std::string(v);
    }
    char kind;
    long long i = 0;
    double f = 0.0;
    std::string s;
  };

  /// \brief Prints one row; a row shorter than the columns ends early.
  template <typename... Args>
  void Row(const Args&... values) {
    AddRow({Value(values)...});
  }
  /// \brief Row() for a row whose length is known only at run time.
  inline void AddRow(const std::vector<Value>& values);

 private:
  friend class Report;

  /// A column's format split around its conversion, every integer
  /// conversion widened to long long.
  struct Spec {
    std::string prefix, conv, suffix;  ///< literals still printf-escaped
    char kind;  ///< 'i' integer, 'f' floating, 's' text
    int width;  ///< printed width of the whole cell
    bool left;
  };

  Table(Report* report, std::string name, std::vector<Column> columns,
        bool inline_row)
      : report_(report),
        name_(std::move(name)),
        columns_(std::move(columns)),
        inline_(inline_row) {
    for (const Column& c : columns_) specs_.push_back(Parse(c.format));
  }

  static Spec Parse(const std::string& f) {
    size_t i = f.find('%');
    while (i != std::string::npos && f[i + 1] == '%') i = f.find('%', i + 2);
    const size_t j = f.find_first_of("diuxXfFeEgGs", i + 1);
    DLSYS_CHECK(i != std::string::npos && j != std::string::npos,
                "bench column format holds no conversion");
    std::string spec = f.substr(i + 1, j - i - 1);
    spec.erase(std::remove_if(spec.begin(), spec.end(),
                              [](char c) { return std::isalpha(c); }),
               spec.end());  // length modifiers
    Spec s;
    s.kind = f[j] == 's' ? 's' : std::strchr("diuxX", f[j]) ? 'i' : 'f';
    s.conv = "%" + spec + (s.kind == 'i' ? "ll" : "") + f[j];
    s.prefix = f.substr(0, i);
    s.suffix = f.substr(j + 1);
    s.left = spec.find('-') != std::string::npos;
    const size_t digits = spec.find_first_not_of("-+ #0");
    s.width = digits == std::string::npos ? 0 : std::atoi(&spec[digits]);
    for (const std::string* lit : {&s.prefix, &s.suffix}) {
      s.width += static_cast<int>(
          lit->size() - std::count(lit->begin(), lit->end(), '%') / 2);
    }
    return s;
  }

  /// Returns the printed cell and sets \p figure to the figure alone,
  /// without padding or literal text.
  static std::string Render(const Spec& s, const Value& v,
                            std::string* figure) {
    const std::string whole = s.prefix + s.conv + s.suffix;
    auto trimmed = [](const std::string& t) {
      const size_t from = t.find_first_not_of(' ');
      return t.substr(from, t.find_last_not_of(' ') + 1 - from);
    };
    if (v.kind == 's') {
      *figure = v.s;
      return s.kind == 's'
                 ? Format(whole.c_str(), v.s.c_str())
                 : Format(s.left ? "%-*s" : "%*s", s.width, v.s.c_str());
    }
    if (s.kind == 'i') {
      DLSYS_CHECK(v.kind == 'i', "bench integer column given a non-integer");
      *figure = trimmed(Format(s.conv.c_str(), v.i));
      return Format(whole.c_str(), v.i);
    }
    DLSYS_CHECK(s.kind == 'f', "bench text column given a number");
    const double d = v.kind == 'f' ? v.f : static_cast<double>(v.i);
    *figure = trimmed(Format(s.conv.c_str(), d));
    return Format(whole.c_str(), d);
  }

  Report* report_;
  std::string name_;
  std::vector<Column> columns_;
  std::vector<Spec> specs_;
  bool inline_;
  std::vector<std::vector<std::string>> rows_;  ///< figures as printed
};

/// \brief One bench run's report: its tables, its prose and its claims.
class Report {
 public:
  /// \brief \p name is the bench's name without the "bench_" prefix; the
  /// JSON lands in BENCH_<json_name>.json, by default BENCH_<name>.json.
  explicit Report(std::string name, std::string json_name = "")
      : name_(std::move(name)),
        json_name_(json_name.empty() ? name_ : std::move(json_name)) {}

  /// \brief Declares a table printed as a header line and one line per
  /// row, cells joined by single spaces. The header prints before the
  /// first row and again before a row that follows other output.
  Table& AddTable(std::string name, std::vector<Column> columns) {
    return tables_.emplace_back(
        Table(this, std::move(name), std::move(columns), false));
  }

  /// \brief Declares a table without a header, each row printed as one
  /// line: the column formats concatenated, figures inline.
  Table& AddLine(std::string name, std::vector<Column> columns) {
    return tables_.emplace_back(
        Table(this, std::move(name), std::move(columns), true));
  }

  /// \brief Prints prose verbatim. Figures belong in tables, not here.
  [[gnu::format(printf, 2, 3)]] void Print(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    last_ = nullptr;
  }

  /// \brief Writes the JSON and prints the claims line. Returns the exit
  /// status: 0 when \p ok and the JSON was written, else 1.
  int Finish(bool ok = true) {
    uint64_t digest = 14695981039346656037ull;  // FNV-1a 64 offset basis
    auto mix = [&digest](const std::string& text) {
      for (const char c : text + '\0') {
        digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
    };
    long long exact = 0;
    std::string tables;
    for (const Table& t : tables_) {
      mix(t.name_);
      tables += std::string(tables.empty() ? "\n" : ",\n") +
                "    {\"name\": " + JsonString(t.name_) + ", \"columns\": [";
      for (const Column& c : t.columns_) {
        mix(c.name);
        tables += std::string(&c == &t.columns_[0] ? "" : ", ") +
                  "{\"name\": " + JsonString(c.name) + ", \"tag\": \"" +
                  (c.tag == kExact ? "exact" : "wall") + "\"}";
      }
      tables += "],\n     \"rows\": [";
      for (const std::vector<std::string>& row : t.rows_) {
        const long long before = exact;
        tables += &row == &t.rows_[0] ? "\n      [" : ",\n      [";
        for (size_t i = 0; i < t.columns_.size(); ++i) {
          tables += i == 0 ? "" : ", ";
          tables += i < row.size() ? JsonCell(row[i]) : "null";
          if (i >= row.size() || t.columns_[i].tag != kExact) continue;
          mix(row[i]);
          ++exact;
        }
        tables += "]";
        // A row of wall figures alone is itself a wall figure.
        if (exact > before) mix("\n");
      }
      tables += "]}";
    }
    const unsigned long long fnv = digest;
    const bool written = WriteFile(
        "BENCH_" + json_name_ + ".json",
        Format("{\n  \"bench\": \"bench_%s\",\n  \"claims\": {\"fnv1a64\": "
               "\"0x%016llx\", \"exact\": %lld},\n  \"tables\": [",
               name_.c_str(), fnv, exact) +
            tables + "\n  ]\n}\n");
    std::printf("claims bench_%s fnv1a64=0x%016llx exact=%lld\n",
                name_.c_str(), fnv, exact);
    return ok && written ? 0 : 1;
  }

 private:
  friend class Table;

  static std::string JsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += static_cast<unsigned char>(c) < 0x20 ? Format("\\u%04x", c)
                                                  : std::string(1, c);
    }
    return out + "\"";
  }

  /// A printed figure as JSON: a number when its text is one.
  static std::string JsonCell(const std::string& figure) {
    const std::string s = figure.substr(figure[0] == '+' ? 1 : 0);
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    const bool number = *end == '\0' && std::isdigit(s[s[0] == '-']) &&
                        s.find_first_of("xX") == std::string::npos;
    return number ? s : JsonString(figure);
  }

  std::string name_;
  std::string json_name_;
  std::deque<Table> tables_;
  const Table* last_ = nullptr;  ///< table of the last printed line
};

inline void Table::AddRow(const std::vector<Value>& values) {
  DLSYS_CHECK(values.size() <= columns_.size(),
              "bench row has more values than its table has columns");
  std::string line;
  if (!inline_ && report_->last_ != this) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      const char* head = columns_[i].head;
      if (head != nullptr && head[0] == '\0') continue;
      line += line.empty() ? "" : " ";
      line += head != nullptr
                  ? Format(head, columns_[i].name.c_str())
                  : Format(specs_[i].left ? "%-*s" : "%*s", specs_[i].width,
                           columns_[i].name.c_str());
    }
    line += '\n';
  }
  std::vector<std::string> figures(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    line += i > 0 && !inline_ ? " " : "";
    line += Render(specs_[i], values[i], &figures[i]);
  }
  std::printf("%s\n", line.c_str());
  rows_.push_back(std::move(figures));
  report_->last_ = this;
}

}  // namespace dlsys::bench

#endif  // DLSYS_BENCH_REPORT_H_

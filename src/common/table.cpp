#include "common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>

namespace orp {

std::string format_double(double value, int precision) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  if (s == "-0") return "0";
  return s;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  cells_.emplace_back();
  cells_.back().reserve(header_.size());
  return *this;
}

Table& Table::add(std::string cell) {
  if (cells_.empty()) row();
  cells_.back().push_back(std::move(cell));
  return *this;
}

Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}
Table& Table::add(std::size_t value) { return add(std::to_string(value)); }
Table& Table::add(int value) { return add(std::to_string(value)); }
Table& Table::add(long long value) { return add(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : cells_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      os << "  " << cell;
      for (std::size_t pad = cell.size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& r : cells_) emit(r);
}

void Table::print_markdown(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& r) {
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < r.size() ? r[c] : std::string{};
      os << ' ';
      for (char ch : cell) {
        if (ch == '|') os << '\\';
        os << ch;
      }
      os << " |";
    }
    os << '\n';
  };
  emit(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& r : cells_) emit(r);
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(r[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& r : cells_) emit(r);
}

bool Table::write_csv_file(const std::string& path) const {
  // mkdir -p semantics: a CSV destination like $ORP_CSV_DIR/fig05.csv must
  // not silently drop data just because the directory wasn't made yet.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // open below reports failure
  }
  std::ofstream file(path);
  if (!file) return false;
  write_csv(file);
  return static_cast<bool>(file);
}

}  // namespace orp

#include "common/strings.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace chaser {

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string Hex64(std::uint64_t v) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(v));
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseKeyValList(const std::string& spec, std::vector<KeyVal>* out,
                     std::string* bad_token) {
  out->clear();
  if (spec.empty()) return true;
  for (const std::string& kv : Split(spec, ',')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (bad_token != nullptr) *bad_token = kv;
      return false;
    }
    out->push_back({kv.substr(0, eq), kv.substr(eq + 1)});
  }
  return true;
}

namespace {

/// Position just past `"key"` + optional whitespace + ':', or npos.
std::size_t FindJsonValueStart(const std::string& json,
                               const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    std::size_t p = pos + needle.size();
    while (p < json.size() &&
           std::isspace(static_cast<unsigned char>(json[p]))) {
      ++p;
    }
    if (p < json.size() && json[p] == ':') {
      ++p;
      while (p < json.size() &&
             std::isspace(static_cast<unsigned char>(json[p]))) {
        ++p;
      }
      return p;
    }
    pos += needle.size();  // a string VALUE that happens to look like the key
  }
  return std::string::npos;
}

/// End (one past) of the quoted string starting at json[start] == '"'.
std::size_t QuotedEnd(const std::string& json, std::size_t start) {
  for (std::size_t p = start + 1; p < json.size(); ++p) {
    if (json[p] == '\\') {
      ++p;
    } else if (json[p] == '"') {
      return p + 1;
    }
  }
  return std::string::npos;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

bool JsonFindRaw(const std::string& json, const std::string& key,
                 std::string* out) {
  const std::size_t start = FindJsonValueStart(json, key);
  if (start == std::string::npos || start >= json.size()) return false;
  const char c = json[start];
  if (c == '"') {
    const std::size_t end = QuotedEnd(json, start);
    if (end == std::string::npos) return false;
    *out = json.substr(start, end - start);
    return true;
  }
  if (c == '{' || c == '[') {
    const char open = c;
    const char close = c == '{' ? '}' : ']';
    int depth = 0;
    for (std::size_t p = start; p < json.size(); ++p) {
      if (json[p] == '"') {
        const std::size_t end = QuotedEnd(json, p);
        if (end == std::string::npos) return false;
        p = end - 1;
      } else if (json[p] == open) {
        ++depth;
      } else if (json[p] == close) {
        if (--depth == 0) {
          *out = json.substr(start, p + 1 - start);
          return true;
        }
      }
    }
    return false;
  }
  // Bare token: number, null, true, false — up to a structural delimiter.
  std::size_t p = start;
  while (p < json.size() && json[p] != ',' && json[p] != '}' &&
         json[p] != ']' &&
         !std::isspace(static_cast<unsigned char>(json[p]))) {
    ++p;
  }
  if (p == start) return false;
  *out = json.substr(start, p - start);
  return true;
}

bool JsonFindString(const std::string& json, const std::string& key,
                    std::string* out) {
  std::string raw;
  if (!JsonFindRaw(json, key, &raw) || raw.size() < 2 || raw.front() != '"') {
    return false;
  }
  std::string decoded;
  decoded.reserve(raw.size() - 2);
  for (std::size_t p = 1; p + 1 < raw.size(); ++p) {
    if (raw[p] == '\\' && p + 2 < raw.size()) {
      ++p;
      decoded.push_back(raw[p] == 'n' ? '\n' : raw[p]);
    } else {
      decoded.push_back(raw[p]);
    }
  }
  *out = decoded;
  return true;
}

bool JsonFindNumber(const std::string& json, const std::string& key,
                    double* out) {
  std::string raw;
  if (!JsonFindRaw(json, key, &raw)) return false;
  return ParseDouble(raw, out);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace chaser

#include "sim/runner/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/check.hpp"

namespace dyngossip {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::str(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  DG_CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  DG_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& JsonValue::as_string() const {
  DG_CHECK(type_ == Type::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  DG_CHECK(type_ == Type::kArray);
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  DG_CHECK(type_ == Type::kObject);
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::push(JsonValue v) {
  DG_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  DG_CHECK(type_ == Type::kObject);
  object_.emplace_back(std::move(key), std::move(v));
}

namespace {

void escape_to(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(double v, std::string& out) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no inf/nan; null keeps the document valid
    return;
  }
  char buf[32];
  // Counts, rounds and sizes dominate every document.  An integral value
  // below 1e15 has at most 15 significant digits, so %.15g prints it as a
  // plain integer: std::to_chars gives the same bytes without the
  // snprintf/strtod round trip.  -0.0 prints as "-0" and stays on the
  // general path.
  if (std::fabs(v) < 1e15 && v == std::trunc(v) &&
      !(v == 0.0 && std::signbit(v))) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                  static_cast<std::int64_t>(v)).ptr);
    return;
  }
  // %.17g round-trips doubles exactly; trim to the shortest that does.
  for (const int prec : {15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: number_to(number_, out); break;
    case Type::kString: escape_to(string_, out); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        escape_to(object_[i].first, out);
        out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent parser over [p, end).
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), begin_(p), end_(end) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (p_ != end_) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(p_ - begin_) + ": " + what);
  }

  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  char peek() {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  void expect(char c) {
    if (p_ == end_ || *p_ != c) fail(std::string("expected '") + c + "'");
    ++p_;
  }

  bool consume_literal(const char* lit) {
    const char* q = p_;
    for (const char* l = lit; *l; ++l, ++q) {
      if (q == end_ || *q != *l) return false;
    }
    p_ = q;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::str(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++p_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++p_;
      return arr;
    }
    for (;;) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++p_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (p_ == end_) fail("unterminated string");
      const char c = *p_++;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ == end_) fail("unterminated escape");
      const char e = *p_++;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (end_ - p_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // the engine only ever emits ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  JsonValue parse_number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e' ||
                          *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      digits = digits || (*p_ >= '0' && *p_ <= '9');
      ++p_;
    }
    if (!digits) fail("invalid number");
    const std::string token(start, p_);
    char* endp = nullptr;
    const double v = std::strtod(token.c_str(), &endp);
    if (endp == nullptr || *endp != '\0') fail("invalid number '" + token + "'");
    return JsonValue::number(v);
  }

  const char* p_;
  const char* begin_;
  const char* end_;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.parse_document();
}

}  // namespace dyngossip

#include "service/jsonl.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace qzz::svc {

namespace {

/** Cursor over one line with position-carrying error reporting. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            std::ostringstream os;
            os << what << " at offset " << pos_;
            error_ = os.str();
        }
        return false;
    }

    const std::string &error() const { return error_; }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    bool
    consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (atEnd())
                    return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    out.push_back(e);
                    break;
                case 'b':
                    out.push_back('\b');
                    break;
                case 'f':
                    out.push_back('\f');
                    break;
                case 'n':
                    out.push_back('\n');
                    break;
                case 'r':
                    out.push_back('\r');
                    break;
                case 't':
                    out.push_back('\t');
                    break;
                case 'u': {
                    // ASCII-range \uXXXX only (jsonEscape emits
                    // \u00XX for control bytes); non-ASCII
                    // codepoints would need UTF-8 encoding the
                    // protocol has no use for.
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        if (atEnd())
                            return fail("unterminated \\u escape");
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            return fail("malformed \\u escape");
                    }
                    if (code >= 0x80)
                        return fail("non-ASCII \\u escape");
                    out.push_back(char(code));
                    break;
                }
                default:
                    return fail("unsupported escape");
                }
            } else {
                out.push_back(c);
            }
        }
    }

    bool
    parseNumber(double &out)
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.'))
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        if (token.empty() || end != token.c_str() + token.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseValue(JsonScalar &out)
    {
        skipSpace();
        const char c = peek();
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = std::move(s);
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("malformed literal");
            out = true;
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("malformed literal");
            out = false;
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("malformed literal");
            out = nullptr;
            return true;
        }
        if (c == '{' || c == '[')
            return fail("nested values are not part of the protocol");
        double v = 0.0;
        if (!parseNumber(v))
            return false;
        out = v;
        return true;
    }

    bool
    parseObject(std::map<std::string, JsonScalar> &fields)
    {
        skipSpace();
        if (!consume('{'))
            return fail("expected '{'");
        skipSpace();
        if (consume('}')) {
            skipSpace();
            return atEndOrFail();
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail("expected ':'");
            JsonScalar value;
            if (!parseValue(value))
                return false;
            if (!fields.emplace(std::move(key), std::move(value)).second)
                return fail("duplicate key");
            skipSpace();
            if (consume(','))
                continue;
            if (consume('}')) {
                skipSpace();
                return atEndOrFail();
            }
            return fail("expected ',' or '}'");
        }
    }

  private:
    bool
    atEndOrFail()
    {
        return atEnd() ? true : fail("trailing characters");
    }

    std::string_view text_;
    size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::optional<JsonObject>
JsonObject::parse(std::string_view line, std::string *error)
{
    JsonObject obj;
    Parser parser(line);
    if (!parser.parseObject(obj.fields_)) {
        if (error != nullptr)
            *error = parser.error();
        return std::nullopt;
    }
    return obj;
}

bool
JsonObject::has(const std::string &key) const
{
    return fields_.count(key) != 0;
}

std::optional<std::string>
JsonObject::getString(const std::string &key) const
{
    auto it = fields_.find(key);
    if (it == fields_.end())
        return std::nullopt;
    if (const std::string *s = std::get_if<std::string>(&it->second))
        return *s;
    return std::nullopt;
}

std::optional<double>
JsonObject::getNumber(const std::string &key) const
{
    auto it = fields_.find(key);
    if (it == fields_.end())
        return std::nullopt;
    if (const double *v = std::get_if<double>(&it->second))
        return *v;
    return std::nullopt;
}

std::optional<bool>
JsonObject::getBool(const std::string &key) const
{
    auto it = fields_.find(key);
    if (it == fields_.end())
        return std::nullopt;
    if (const bool *v = std::get_if<bool>(&it->second))
        return *v;
    return std::nullopt;
}

std::optional<int64_t>
JsonObject::getInt(const std::string &key) const
{
    const std::optional<double> v = getNumber(key);
    if (!v)
        return std::nullopt;
    const double r = std::round(*v);
    if (std::abs(*v - r) > 1e-9 || !std::isfinite(r))
        return std::nullopt;
    // Reject values outside int64 range before the cast — the
    // conversion of an unrepresentable double is undefined behavior,
    // and this parser's whole job is rejecting untrusted input
    // cleanly.  (2^63 is exactly representable; the half-open bound
    // is the exact test.)
    if (!(r >= -9223372036854775808.0 && r < 9223372036854775808.0))
        return std::nullopt;
    return int64_t(r);
}

std::string
jsonEscape(std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            // RFC 8259: all other control characters must be escaped
            // too, or the emitted line is not valid JSON.
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out.push_back(hex[(c >> 4) & 0xf]);
                out.push_back(hex[c & 0xf]);
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace qzz::svc

/**
 * @file
 * Minimal JSON building and parsing for the telemetry plane.
 *
 * Every JSON document the process emits (metrics snapshots, STATS
 * payloads, slow-op dumps, Chrome traces) funnels through the
 * escape helper and JsonWriter here, so quoting bugs get fixed in
 * one place instead of per call site. The parser covers the subset
 * the tooling needs — objects, arrays, strings with escapes,
 * numbers, booleans, null — and exists so `ethkv_mon` and the
 * trace validator don't grow their own ad-hoc scanners.
 *
 * Not a general-purpose JSON library: no streaming, no SAX, no
 * number round-trip guarantees beyond double precision.
 */

#ifndef ETHKV_OBS_JSON_HH
#define ETHKV_OBS_JSON_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace ethkv::obs
{

/**
 * Append `s` to `out` as a JSON string body (no surrounding
 * quotes): escapes quote, backslash, and all control characters
 * below 0x20 (named escapes for \b \f \n \r \t, \u00XX otherwise).
 * Header-inline so hot exporters (metrics.cc in the pinned
 * sanitizer builds) don't need json.cc linked in.
 */
inline void
appendJsonEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        unsigned char uc = static_cast<unsigned char>(c);
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
            if (uc < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
}

/** appendJsonEscaped WITH surrounding quotes. */
inline void
appendJsonString(std::string &out, std::string_view s)
{
    out.push_back('"');
    appendJsonEscaped(out, s);
    out.push_back('"');
}

/**
 * Structured JSON emitter: tracks nesting and inserts commas, so
 * callers can't produce `,}` or forget a separator. Usage:
 *
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("schema"); w.value("ethkv.server.stats.v3");
 *   w.key("metrics"); w.rawValue(registry.toJson());
 *   w.endObject();
 *   use(w.str());
 *
 * Misuse (value without key inside an object, unbalanced ends) is
 * a programming error and panics in debug via expect checks.
 */
class JsonWriter
{
  public:
    JsonWriter() { out_.reserve(256); }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Member name; must be followed by exactly one value. */
    void key(std::string_view name);

    void value(std::string_view s);
    void
    value(const char *s)
    {
        value(std::string_view(s));
    }
    void value(uint64_t v);
    void value(int64_t v);
    void
    value(int v)
    {
        value(static_cast<int64_t>(v));
    }
    void
    value(unsigned v)
    {
        value(static_cast<uint64_t>(v));
    }
    void value(double v);
    void value(bool v);
    void null();

    /** Splice pre-rendered JSON (e.g. a nested snapshot) in value
     *  position. Trailing whitespace/newlines are trimmed. */
    void rawValue(std::string_view json);

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    void beforeValue();

    std::string out_;
    // One level per open container: true once the first element
    // has been written (so the next one needs a comma).
    std::vector<bool> wrote_elem_;
    bool pending_key_ = false;
};

/**
 * Parsed JSON value (DOM). Object members keep insertion order;
 * lookup is linear — documents here are small (metrics snapshots,
 * traces of a few thousand spans).
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Member lookup; null when not an object or key missing. */
    const JsonValue *find(std::string_view name) const;

    /** number as uint64 (clamped at 0 for negatives). */
    uint64_t asU64() const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed,
 * trailing garbage is an error). Depth-limited against stack
 * exhaustion on adversarial inputs.
 */
Status parseJson(std::string_view text, JsonValue &out);

} // namespace ethkv::obs

#endif // ETHKV_OBS_JSON_HH

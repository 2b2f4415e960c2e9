/**
 * @file
 * Sweep-spec document parsing (TOML subset + JSON) and canonical TOML
 * serialization.
 *
 * Both syntaxes parse into one ordered document tree (Node); a shared
 * builder walks the tree, validates every key and field value through
 * the same registry the CLI uses (applyField), and assembles the
 * SweepSpec. Every diagnostic carries file:line:col.
 */

#include "sweep/specfile.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.h"

namespace vortex::sweep {

namespace {

/** Schema identifier accepted in the optional `spec = "..."` header. */
constexpr const char* kSchemaId = "vortex-sweep/v1";

//
// Document tree. Tables keep member order (axis points and field
// assignments are order-sensitive), and every node remembers where it
// began so the builder can point diagnostics at the source.
//

struct Node;

/** One `key = value` member of a table, with the key's position. */
struct Member
{
    std::string key;
    size_t line = 0;
    size_t col = 0;
    size_t valueIndex = 0; ///< index of the value node in Node::children
};

struct Node
{
    enum class Kind : uint8_t
    {
        String,
        Integer,
        Boolean,
        Table,
        Array,
    };

    Kind kind = Kind::Table;
    size_t line = 0;
    size_t col = 0;

    std::string str;      // Kind::String
    int64_t integer = 0;  // Kind::Integer
    bool boolean = false; // Kind::Boolean

    std::vector<Member> members;  // Kind::Table (ordered)
    std::vector<Node> children;   // Table member values / Array elements

    const char*
    kindName() const
    {
        switch (kind) {
        case Kind::String: return "string";
        case Kind::Integer: return "integer";
        case Kind::Boolean: return "boolean";
        case Kind::Table: return "table";
        case Kind::Array: return "array";
        }
        return "?";
    }

    Node*
    find(const std::string& key)
    {
        for (Member& m : members)
            if (m.key == key)
                return &children[m.valueIndex];
        return nullptr;
    }
};

[[noreturn]] void
fail(const std::string& file, size_t line, size_t col,
     const std::string& message)
{
    throw SpecParseError(file, line, col, message);
}

//
// TOML-subset parser. Line-oriented: comments, blank lines, [table] and
// [[array-of-tables]] headers, and `key = value` pairs with dotted bare
// keys and string/integer/boolean values.
//

class TomlParser
{
  public:
    TomlParser(const std::string& text, std::string file)
        : text_(text), file_(std::move(file))
    {
    }

    Node
    parse()
    {
        Node root;
        root.kind = Node::Kind::Table;
        current_ = &root;

        size_t pos = 0, line = 0;
        while (pos <= text_.size()) {
            size_t eol = text_.find('\n', pos);
            if (eol == std::string::npos)
                eol = text_.size();
            ++line;
            size_t len = eol - pos;
            // Tolerate CRLF line endings (checked-out specs on Windows).
            if (len > 0 && text_[pos + len - 1] == '\r')
                --len;
            parseLine(root, text_.substr(pos, len), line);
            if (eol == text_.size())
                break;
            pos = eol + 1;
        }
        return root;
    }

  private:
    void
    parseLine(Node& root, const std::string& ln, size_t line)
    {
        size_t i = skipWs(ln, 0);
        if (i >= ln.size() || ln[i] == '#')
            return;
        if (ln[i] == '[') {
            parseHeader(root, ln, i, line);
            return;
        }
        parseKeyValue(ln, i, line);
    }

    void
    parseHeader(Node& root, const std::string& ln, size_t i, size_t line)
    {
        bool isArray = i + 1 < ln.size() && ln[i + 1] == '[';
        size_t start = i + (isArray ? 2 : 1);
        size_t close = ln.find(isArray ? "]]" : "]", start);
        if (close == std::string::npos)
            fail(file_, line, i + 1,
                 std::string("unterminated table header (missing '") +
                     (isArray ? "]]" : "]") + "')");
        std::vector<std::pair<std::string, size_t>> path =
            parseDottedKey(ln, skipWs(ln, start), line, close);
        size_t rest = skipWs(ln, close + (isArray ? 2 : 1));
        if (rest < ln.size() && ln[rest] != '#')
            fail(file_, line, rest + 1,
                 "unexpected text after table header");

        // Resolve every path component but the last; an array-of-tables
        // component means "its most recent element".
        Node* t = &root;
        for (size_t c = 0; c + 1 < path.size(); ++c)
            t = descend(t, path[c].first, line, path[c].second);
        const auto& [leaf, leafCol] = path.back();

        if (isArray) {
            Node* arr = t->find(leaf);
            if (!arr) {
                arr = &addMember(*t, leaf, line, leafCol);
                arr->kind = Node::Kind::Array;
                arr->line = line;
                arr->col = leafCol;
            } else if (arr->kind != Node::Kind::Array) {
                fail(file_, line, leafCol,
                     "'" + leaf + "' is already a " +
                         std::string(arr->kindName()) +
                         ", cannot extend it as an array of tables");
            }
            arr->children.emplace_back();
            Node& elem = arr->children.back();
            elem.kind = Node::Kind::Table;
            elem.line = line;
            elem.col = leafCol;
            current_ = &elem;
        } else {
            if (t->find(leaf))
                fail(file_, line, leafCol,
                     "table '" + leaf + "' defined twice");
            Node& tbl = addMember(*t, leaf, line, leafCol);
            tbl.kind = Node::Kind::Table;
            tbl.line = line;
            tbl.col = leafCol;
            current_ = &tbl;
        }
    }

    /** Resolve one intermediate header-path component. */
    Node*
    descend(Node* t, const std::string& key, size_t line, size_t col)
    {
        Node* next = t->find(key);
        if (!next)
            fail(file_, line, col,
                 "unknown parent table '" + key +
                     "' (declare it before nesting into it)");
        if (next->kind == Node::Kind::Array) {
            if (next->children.empty())
                fail(file_, line, col,
                     "array '" + key + "' has no elements yet");
            return &next->children.back();
        }
        if (next->kind != Node::Kind::Table)
            fail(file_, line, col,
                 "'" + key + "' is a " + std::string(next->kindName()) +
                     ", not a table");
        return next;
    }

    void
    parseKeyValue(const std::string& ln, size_t i, size_t line)
    {
        size_t eq = findEquals(ln, i, line);
        std::vector<std::pair<std::string, size_t>> path =
            parseDottedKey(ln, i, line, eq);

        // Dotted keys nest: `set.kernel = "x"` is table `set` member
        // `kernel`.
        Node* t = current_;
        for (size_t c = 0; c + 1 < path.size(); ++c) {
            const auto& [key, col] = path[c];
            Node* next = t->find(key);
            if (!next) {
                next = &addMember(*t, key, line, col);
                next->kind = Node::Kind::Table;
                next->line = line;
                next->col = col;
            } else if (next->kind != Node::Kind::Table) {
                fail(file_, line, col,
                     "'" + key + "' is already a " +
                         std::string(next->kindName()) +
                         ", cannot assign into it");
            }
            t = next;
        }
        const auto& [leaf, leafCol] = path.back();
        if (t->find(leaf))
            fail(file_, line, leafCol, "key '" + leaf + "' set twice");

        size_t v = skipWs(ln, eq + 1);
        Node value = parseValue(ln, v, line);
        if (v < ln.size() && ln[v] != '#')
            fail(file_, line, v + 1, "unexpected text after value");
        Node& slot = addMember(*t, leaf, line, leafCol);
        size_t keepLine = value.line, keepCol = value.col;
        slot = std::move(value);
        slot.line = keepLine;
        slot.col = keepCol;
    }

    /** Parse a scalar value starting at @p i; advances @p i past it. */
    Node
    parseValue(const std::string& ln, size_t& i, size_t line)
    {
        Node n;
        n.line = line;
        n.col = i + 1;
        if (i >= ln.size())
            fail(file_, line, i + 1, "missing value after '='");
        char c = ln[i];
        if (c == '"') {
            n.kind = Node::Kind::String;
            n.str = parseString(ln, i, line);
        } else if (c == 't' || c == 'f') {
            n.kind = Node::Kind::Boolean;
            if (ln.compare(i, 4, "true") == 0) {
                n.boolean = true;
                i += 4;
            } else if (ln.compare(i, 5, "false") == 0) {
                n.boolean = false;
                i += 5;
            } else {
                fail(file_, line, i + 1,
                     "unrecognized value (expected a \"string\", an "
                     "integer, true, or false)");
            }
        } else if (c == '-' || c == '+' || std::isdigit(
                       static_cast<unsigned char>(c))) {
            n.kind = Node::Kind::Integer;
            size_t start = i;
            if (c == '-' || c == '+')
                ++i;
            size_t digits = i;
            while (i < ln.size() &&
                   std::isdigit(static_cast<unsigned char>(ln[i])))
                ++i;
            if (i == digits)
                fail(file_, line, start + 1, "malformed number");
            if (i < ln.size() && (ln[i] == '.' || ln[i] == 'e' ||
                                  ln[i] == 'E'))
                fail(file_, line, start + 1,
                     "floating-point values are not used by sweep specs "
                     "(field values are integers, booleans, or strings)");
            try {
                n.integer = std::stoll(ln.substr(start, i - start));
            } catch (const std::exception&) {
                fail(file_, line, start + 1, "integer out of range");
            }
        } else {
            fail(file_, line, i + 1,
                 "unrecognized value (expected a \"string\", an integer, "
                 "true, or false)");
        }
        i = skipWs(ln, i);
        return n;
    }

    /** Parse a quoted string starting at ln[i] == '"'; advances i. */
    std::string
    parseString(const std::string& ln, size_t& i, size_t line)
    {
        size_t open = i;
        ++i; // opening quote
        std::string out;
        while (i < ln.size()) {
            char c = ln[i];
            if (c == '"') {
                ++i;
                return out;
            }
            if (c == '\\') {
                if (i + 1 >= ln.size())
                    fail(file_, line, i + 1, "dangling escape in string");
                char e = ln[i + 1];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                default:
                    fail(file_, line, i + 2,
                         std::string("unsupported escape '\\") + e + "'");
                }
                i += 2;
                continue;
            }
            out += c;
            ++i;
        }
        fail(file_, line, open + 1, "unterminated string");
    }

    /** Parse dotted bare keys `a.b.c` filling [i, limit) exactly
     *  (modulo surrounding whitespace — stray tokens are errors, not
     *  silently dropped); returns (component, 1-based column) pairs. */
    std::vector<std::pair<std::string, size_t>>
    parseDottedKey(const std::string& ln, size_t i, size_t line,
                   size_t limit)
    {
        std::vector<std::pair<std::string, size_t>> path;
        while (true) {
            i = skipWs(ln, i);
            size_t start = i;
            while (i < limit && isBareKeyChar(ln[i]))
                ++i;
            if (i == start)
                fail(file_, line, start + 1,
                     "expected a key (bare keys use letters, digits, '_' "
                     "and '-')");
            path.emplace_back(ln.substr(start, i - start), start + 1);
            i = skipWs(ln, i);
            if (i < limit && ln[i] == '.') {
                ++i;
                continue;
            }
            break;
        }
        if (i != limit)
            fail(file_, line, i + 1,
                 "unexpected text after key '" + path.back().first + "'");
        return path;
    }

    size_t
    findEquals(const std::string& ln, size_t i, size_t line)
    {
        size_t eq = ln.find('=', i);
        if (eq == std::string::npos)
            fail(file_, line, i + 1,
                 "expected 'key = value' (no '=' on this line)");
        return eq;
    }

    static bool
    isBareKeyChar(char c)
    {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '-';
    }

    static size_t
    skipWs(const std::string& s, size_t i)
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t'))
            ++i;
        return i;
    }

    Node&
    addMember(Node& table, const std::string& key, size_t line, size_t col)
    {
        table.members.push_back(
            Member{key, line, col, table.children.size()});
        table.children.emplace_back();
        return table.children.back();
    }

    const std::string& text_;
    std::string file_;
    Node* current_ = nullptr; ///< table the next key = value lands in
};

//
// JSON parser (standard JSON; floats and null rejected since the schema
// never uses them).
//

class JsonParser
{
  public:
    JsonParser(const std::string& text, std::string file)
        : text_(text), file_(std::move(file))
    {
    }

    Node
    parse()
    {
        skipWs();
        Node root = parseValue();
        skipWs();
        if (pos_ < text_.size())
            fail(file_, line_, col_, "trailing content after document");
        if (root.kind != Node::Kind::Table)
            fail(file_, root.line, root.col,
                 "top-level JSON value must be an object");
        return root;
    }

  private:
    Node
    parseValue()
    {
        if (pos_ >= text_.size())
            fail(file_, line_, col_, "unexpected end of input");
        Node n;
        n.line = line_;
        n.col = col_;
        char c = text_[pos_];
        if (c == '{') {
            n.kind = Node::Kind::Table;
            advance();
            skipWs();
            if (peek() == '}') {
                advance();
                return n;
            }
            while (true) {
                skipWs();
                size_t kl = line_, kc = col_;
                if (peek() != '"')
                    fail(file_, line_, col_,
                         "expected a \"key\" string");
                std::string key = parseString();
                skipWs();
                expect(':');
                skipWs();
                if (n.find(key))
                    fail(file_, kl, kc, "key '" + key + "' set twice");
                n.members.push_back(
                    Member{key, kl, kc, n.children.size()});
                n.children.push_back(parseValue());
                skipWs();
                if (peek() == ',') {
                    advance();
                    continue;
                }
                expect('}');
                break;
            }
        } else if (c == '[') {
            n.kind = Node::Kind::Array;
            advance();
            skipWs();
            if (peek() == ']') {
                advance();
                return n;
            }
            while (true) {
                skipWs();
                n.children.push_back(parseValue());
                skipWs();
                if (peek() == ',') {
                    advance();
                    continue;
                }
                expect(']');
                break;
            }
        } else if (c == '"') {
            n.kind = Node::Kind::String;
            n.str = parseString();
        } else if (c == 't' || c == 'f') {
            n.kind = Node::Kind::Boolean;
            const char* word = c == 't' ? "true" : "false";
            size_t len = c == 't' ? 4 : 5;
            if (text_.compare(pos_, len, word) != 0)
                fail(file_, line_, col_, "unrecognized literal");
            n.boolean = c == 't';
            for (size_t k = 0; k < len; ++k)
                advance();
        } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            n.kind = Node::Kind::Integer;
            size_t start = pos_, sl = line_, sc = col_;
            if (c == '-')
                advance();
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                advance();
            if (pos_ < text_.size() &&
                (text_[pos_] == '.' || text_[pos_] == 'e' ||
                 text_[pos_] == 'E'))
                fail(file_, sl, sc,
                     "floating-point values are not used by sweep specs");
            if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
                fail(file_, sl, sc, "malformed number");
            try {
                n.integer = std::stoll(text_.substr(start, pos_ - start));
            } catch (const std::exception&) {
                fail(file_, sl, sc, "integer out of range");
            }
        } else if (text_.compare(pos_, 4, "null") == 0) {
            fail(file_, line_, col_,
                 "null is not used by sweep specs (omit the key instead)");
        } else {
            fail(file_, line_, col_, "unrecognized value");
        }
        return n;
    }

    std::string
    parseString()
    {
        advance(); // opening quote
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                advance();
                return out;
            }
            if (c == '\\') {
                advance();
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                default:
                    fail(file_, line_, col_,
                         std::string("unsupported escape '\\") + e + "'");
                }
                advance();
                continue;
            }
            if (c == '\n')
                fail(file_, line_, col_, "unterminated string");
            out += c;
            advance();
        }
        fail(file_, line_, col_, "unterminated string");
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(file_, line_, col_,
                 std::string("expected '") + c + "'");
        advance();
    }

    void
    advance()
    {
        if (pos_ < text_.size() && text_[pos_] == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        ++pos_;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            advance();
    }

    const std::string& text_;
    std::string file_;
    size_t pos_ = 0;
    size_t line_ = 1;
    size_t col_ = 1;
};

//
// Tree -> SweepSpec builder (shared by both syntaxes).
//

/** Scalar node rendered as the string applyField consumes. */
std::string
scalarToString(const std::string& file, const Node& n)
{
    switch (n.kind) {
    case Node::Kind::String: return n.str;
    case Node::Kind::Integer: return std::to_string(n.integer);
    case Node::Kind::Boolean: return n.boolean ? "true" : "false";
    default:
        fail(file, n.line, n.col,
             std::string("expected a scalar value, got a ") +
                 n.kindName());
    }
}

const Node&
expectKind(const std::string& file, const Node& n, Node::Kind kind,
           const char* what)
{
    if (n.kind != kind)
        fail(file, n.line, n.col,
             std::string("expected ") + what + ", got a " + n.kindName());
    return n;
}

/**
 * Flatten a (possibly nested) table of field assignments into ordered
 * (dotted-name, value, position) triples: `lat.alu = 1` and
 * `set.mem.latency = 80` both resolve to the registry's dotted names.
 */
void
flattenFields(const std::string& file, const Node& table,
              const std::string& prefix,
              std::vector<std::pair<std::string, const Node*>>& out)
{
    for (const Member& m : table.members) {
        const Node& v = table.children[m.valueIndex];
        std::string name = prefix.empty() ? m.key : prefix + "." + m.key;
        if (v.kind == Node::Kind::Table)
            flattenFields(file, v, name, out);
        else
            out.emplace_back(std::move(name), &v);
    }
}

/** Apply one field assignment, converting registry fatals into
 *  positioned diagnostics. */
void
applyFieldChecked(const std::string& file, core::ArchConfig& cfg,
                  WorkloadSpec& wl, const std::string& name,
                  const Node& value)
{
    std::string v = scalarToString(file, value);
    try {
        if (!applyField(cfg, wl, name, v))
            fail(file, value.line, value.col,
                 "unknown sweep field '" + name +
                     "' (vortex_sweep --fields lists them)");
    } catch (const FatalError& e) {
        fail(file, value.line, value.col, e.what());
    }
}

Axis
buildAxis(const std::string& file, const Node& axisNode,
          const SweepSpec& spec)
{
    expectKind(file, axisNode, Node::Kind::Table, "an axis table");
    Axis axis;
    bool sawPoints = false;
    for (const Member& m : axisNode.members) {
        const Node& v = axisNode.children[m.valueIndex];
        if (m.key == "name") {
            axis.name = expectKind(file, v, Node::Kind::String,
                                   "a string axis name")
                            .str;
        } else if (m.key == "points") {
            sawPoints = true;
            expectKind(file, v, Node::Kind::Array,
                       "an array of axis points");
            for (const Node& pn : v.children) {
                expectKind(file, pn, Node::Kind::Table, "a point table");
                AxisPoint point;
                bool sawLabel = false;
                for (const Member& pm : pn.members) {
                    const Node& pv = pn.children[pm.valueIndex];
                    if (pm.key == "label") {
                        point.label = scalarToString(file, pv);
                        sawLabel = true;
                    } else if (pm.key == "set") {
                        expectKind(file, pv, Node::Kind::Table,
                                   "a table of field assignments");
                        std::vector<std::pair<std::string, const Node*>>
                            fields;
                        flattenFields(file, pv, "", fields);
                        for (const auto& [fname, fval] : fields) {
                            // Validate the assignment now, on a copy of
                            // the base machine, so a bad field in a
                            // checked-in spec is a parse error with a
                            // position, not an expansion failure later.
                            core::ArchConfig probeCfg = spec.base;
                            WorkloadSpec probeWl = spec.baseWorkload;
                            applyFieldChecked(file, probeCfg, probeWl,
                                              fname, *fval);
                            point.sets.emplace_back(
                                fname, scalarToString(file, *fval));
                        }
                    } else {
                        fail(file, pm.line, pm.col,
                             "unknown point key '" + pm.key +
                                 "' (point keys: label, set)");
                    }
                }
                if (!sawLabel)
                    fail(file, pn.line, pn.col,
                         "axis point needs a label");
                axis.points.push_back(std::move(point));
            }
        } else {
            fail(file, m.line, m.col,
                 "unknown axis key '" + m.key +
                     "' (axis keys: name, points)");
        }
    }
    if (axis.name.empty())
        fail(file, axisNode.line, axisNode.col, "axis needs a name");
    if (!sawPoints || axis.points.empty())
        fail(file, axisNode.line, axisNode.col,
             "axis '" + axis.name + "' has no points");
    return axis;
}

SweepSpec
buildSpec(const std::string& file, const Node& root)
{
    SweepSpec spec;
    for (const Member& m : root.members) {
        const Node& v = root.children[m.valueIndex];
        if (m.key == "spec") {
            const std::string& id =
                expectKind(file, v, Node::Kind::String,
                           "a schema-id string")
                    .str;
            if (id != kSchemaId)
                fail(file, v.line, v.col,
                     "unsupported schema '" + id + "' (this build reads " +
                         kSchemaId + ")");
        } else if (m.key == "name") {
            spec.name = expectKind(file, v, Node::Kind::String,
                                   "a string name")
                            .str;
        } else if (m.key == "description") {
            spec.description =
                expectKind(file, v, Node::Kind::String,
                           "a string description")
                    .str;
        } else if (m.key == "base" || m.key == "workload") {
            // Both sections assign through the field registry; the split
            // is documentation (machine vs what it executes).
            expectKind(file, v, Node::Kind::Table,
                       "a table of field assignments");
            std::vector<std::pair<std::string, const Node*>> fields;
            flattenFields(file, v, "", fields);
            for (const auto& [fname, fval] : fields)
                applyFieldChecked(file, spec.base, spec.baseWorkload,
                                  fname, *fval);
        } else if (m.key == "fabric") {
            // Execution metadata: how to run this spec, not what it
            // measures. Never part of a run's canonical()/content hash.
            expectKind(file, v, Node::Kind::Table, "a fabric table");
            for (const Member& fm : v.members) {
                const Node& fv = v.children[fm.valueIndex];
                if (fm.key == "shard") {
                    const std::string s = scalarToString(file, fv);
                    try {
                        parseShardValue("fabric shard", s,
                                        spec.shardIndex,
                                        spec.shardCount);
                    } catch (const FatalError& e) {
                        fail(file, fv.line, fv.col, e.what());
                    }
                } else {
                    fail(file, fm.line, fm.col,
                         "unknown fabric key '" + fm.key +
                             "' (fabric keys: shard)");
                }
            }
        } else if (m.key == "faults") {
            // Fault-injection parameters (docs/ROBUSTNESS.md). The keys
            // route through the "faults.*" registry fields so spec files
            // and axis points share one parser and one validation.
            expectKind(file, v, Node::Kind::Table, "a faults table");
            for (const Member& fm : v.members) {
                const Node& fv = v.children[fm.valueIndex];
                if (fm.key == "seed" || fm.key == "count" ||
                    fm.key == "window" || fm.key == "watchdog") {
                    applyFieldChecked(file, spec.base, spec.baseWorkload,
                                      "faults." + fm.key, fv);
                } else {
                    fail(file, fm.line, fm.col,
                         "unknown faults key '" + fm.key +
                             "' (faults keys: seed, count, window, "
                             "watchdog)");
                }
            }
        } else if (m.key == "axes") {
            expectKind(file, v, Node::Kind::Array, "an array of axes");
            for (const Node& axisNode : v.children)
                spec.axes.push_back(buildAxis(file, axisNode, spec));
        } else {
            fail(file, m.line, m.col,
                 "unknown top-level key '" + m.key +
                     "' (keys: spec, name, description, base, workload, "
                     "faults, fabric, axes)");
        }
    }
    return spec;
}

//
// Serialization helpers.
//

/** TOML/JSON-safe quoted string. */
std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: out += c;
        }
    }
    out += '"';
    return out;
}

/** Emit a stored string value in its most natural TOML form: bare
 *  integer or boolean when the text round-trips exactly, quoted
 *  otherwise. */
std::string
tomlValue(const std::string& v)
{
    if (v == "true" || v == "false")
        return v;
    if (!v.empty() &&
        v.find_first_not_of("0123456789") == std::string::npos) {
        // Only canonical decimals go bare ("007" must stay a string).
        if (v == "0" || v[0] != '0')
            return v;
    }
    return quoted(v);
}

/**
 * Every concrete config field of @p c as (registry name, value text), in
 * registry order. This is the [base] block of a dump: complete, so the
 * file pins the machine even if ArchConfig defaults change later.
 * Derived fields ("cores") are intentionally absent.
 * tests/test_specfile.cpp (DumpCoversEveryRegistryField) fails if a
 * field added to the registry is forgotten here.
 */
std::vector<std::pair<std::string, std::string>>
configAssignments(const core::ArchConfig& c)
{
    auto b = [](bool v) { return std::string(v ? "true" : "false"); };
    auto u = [](uint64_t v) { return std::to_string(v); };
    return {
        {"numThreads", u(c.numThreads)},
        {"numWarps", u(c.numWarps)},
        {"numCores", u(c.numCores)},
        {"coresPerCluster", u(c.coresPerCluster)},
        {"ibufferDepth", u(c.ibufferDepth)},
        {"lsuDepth", u(c.lsuDepth)},
        {"schedPolicy", schedPolicyName(c.schedPolicy)},
        {"lat.alu", u(c.lat.alu)},
        {"lat.mul", u(c.lat.mul)},
        {"lat.div", u(c.lat.div)},
        {"lat.fpu", u(c.lat.fpu)},
        {"lat.fcvt", u(c.lat.fcvt)},
        {"lat.fdiv", u(c.lat.fdiv)},
        {"lat.fsqrt", u(c.lat.fsqrt)},
        {"lat.sfu", u(c.lat.sfu)},
        {"lineSize", u(c.lineSize)},
        {"icacheSize", u(c.icacheSize)},
        {"icacheWays", u(c.icacheWays)},
        {"dcacheSize", u(c.dcacheSize)},
        {"dcacheWays", u(c.dcacheWays)},
        {"dcacheBanks", u(c.dcacheBanks)},
        {"dcachePorts", u(c.dcachePorts)},
        {"mshrEntries", u(c.mshrEntries)},
        {"smemSize", u(c.smemSize)},
        {"smemLatency", u(c.smemLatency)},
        {"l2Enabled", b(c.l2Enabled)},
        {"l2Size", u(c.l2Size)},
        {"l2Banks", u(c.l2Banks)},
        {"l2Ways", u(c.l2Ways)},
        {"l3Enabled", b(c.l3Enabled)},
        {"l3Size", u(c.l3Size)},
        {"l3Banks", u(c.l3Banks)},
        {"l3Ways", u(c.l3Ways)},
        {"mem.latency", u(c.mem.latency)},
        {"mem.busWidth", u(c.mem.busWidth)},
        {"mem.numChannels", u(c.mem.numChannels)},
        {"mem.queueDepth", u(c.mem.queueDepth)},
        {"texEnabled", b(c.texEnabled)},
        {"sampleInterval", u(c.sampleInterval)},
    };
}

/** The [workload] block: family first (kernel/texFilter imply a family,
 *  so order matters), then the family's own fields. */
std::vector<std::pair<std::string, std::string>>
workloadAssignments(const WorkloadSpec& w)
{
    std::vector<std::pair<std::string, std::string>> out;
    if (w.kind == WorkloadSpec::Kind::Rodinia)
        out = {{"workload", "rodinia"},
               {"kernel", w.kernel},
               {"scale", std::to_string(w.scale)}};
    else
        out = {{"workload", "texture"},
               {"texFilter", texFilterName(w.texFilter)},
               {"texHw", w.texHw ? "true" : "false"},
               {"texSize", std::to_string(w.texSize)}};
    if (!w.program.empty())
        out.emplace_back("program", w.program);
    if (!w.check.empty())
        out.emplace_back("check", w.check);
    return out;
}

} // namespace

SpecParseError::SpecParseError(std::string file, size_t line,
                               size_t column, const std::string& message)
    : std::runtime_error(
          line == 0 ? file + ": " + message
                    : file + ":" + std::to_string(line) + ":" +
                          std::to_string(column) + ": " + message),
      file_(std::move(file)), line_(line), column_(column)
{
}

SweepSpec
parseSpecText(const std::string& text, const std::string& filename)
{
    size_t i = 0;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
        ++i;
    Node root = (i < text.size() && text[i] == '{')
                    ? JsonParser(text, filename).parse()
                    : TomlParser(text, filename).parse();
    return buildSpec(filename, root);
}

SweepSpec
parseSpecFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read sweep spec '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    SweepSpec spec = parseSpecText(buf.str(), path);
    if (spec.name.empty()) {
        // Default the campaign name to the file stem, like presets are
        // named after themselves.
        size_t slash = path.find_last_of("/\\");
        std::string stem =
            slash == std::string::npos ? path : path.substr(slash + 1);
        size_t dot = stem.find_last_of('.');
        if (dot != std::string::npos && dot > 0)
            stem = stem.substr(0, dot);
        spec.name = stem;
    }
    return spec;
}

void
writeSpecToml(const SweepSpec& spec, std::ostream& os)
{
    os << "# vortex-sim sweep specification (docs/SWEEP_SPECS.md).\n";
    os << "# Self-contained: [base] lists every machine field, so this "
          "file pins\n";
    os << "# the swept machine even if simulator defaults change.\n";
    os << "spec = " << quoted(kSchemaId) << "\n";
    os << "name = " << quoted(spec.name) << "\n";
    if (!spec.description.empty())
        os << "description = " << quoted(spec.description) << "\n";

    os << "\n[base]\n";
    for (const auto& [k, v] : configAssignments(spec.base))
        os << k << " = " << tomlValue(v) << "\n";

    os << "\n[workload]\n";
    for (const auto& [k, v] : workloadAssignments(spec.baseWorkload))
        os << k << " = " << tomlValue(v) << "\n";

    // Fault injection, only when set: clean specs serialize exactly as
    // they did before the faults layer existed (docs/ROBUSTNESS.md).
    if (spec.baseWorkload.faults.any()) {
        const faults::FaultSpec& f = spec.baseWorkload.faults;
        os << "\n[faults]\n";
        os << "seed = " << f.seed << "\n";
        os << "count = " << f.count << "\n";
        if (f.window)
            os << "window = " << f.window << "\n";
        if (f.watchdog)
            os << "watchdog = " << f.watchdog << "\n";
    }

    // Execution metadata, only when set: a shard-annotated spec is the
    // unit of work shipped to one fleet host (docs/FABRIC.md). Absent
    // on every preset dump, so shipped spec files are unchanged.
    if (spec.shardCount > 0) {
        os << "\n[fabric]\n";
        os << "shard = " << quoted(std::to_string(spec.shardIndex) + "/" +
                                   std::to_string(spec.shardCount))
           << "\n";
    }

    for (const Axis& axis : spec.axes) {
        os << "\n[[axes]]\n";
        os << "name = " << quoted(axis.name) << "\n";
        for (const AxisPoint& p : axis.points) {
            os << "\n[[axes.points]]\n";
            os << "label = " << quoted(p.label) << "\n";
            for (const auto& [field, value] : p.sets)
                os << "set." << field << " = " << tomlValue(value) << "\n";
        }
    }
}

std::string
specToToml(const SweepSpec& spec)
{
    std::ostringstream os;
    writeSpecToml(spec, os);
    return os.str();
}

} // namespace vortex::sweep

#include "eval/evaluator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/strings.h"
#include "match/matcher.h"

namespace cypher {

namespace {

Status TypeError(const std::string& what) {
  return Status::ExecutionError(what);
}

Value TriToValue(Tri t) {
  switch (t) {
    case Tri::kTrue:
      return Value::Bool(true);
    case Tri::kFalse:
      return Value::Bool(false);
    case Tri::kNull:
      return Value::Null();
  }
  return Value::Null();
}

// ---- Arithmetic -------------------------------------------------------------

Result<Value> EvalAdd(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_int() && b.is_int()) {
    int64_t out;
    if (__builtin_add_overflow(a.AsInt(), b.AsInt(), &out)) {
      return TypeError("integer overflow in addition");
    }
    return Value::Int(out);
  }
  if (a.is_number() && b.is_number()) {
    return Value::Float(a.AsNumber() + b.AsNumber());
  }
  if (a.is_string() || b.is_string()) {
    auto text = [](const Value& v) -> Result<std::string> {
      if (v.is_string()) return v.AsString();
      if (v.is_int()) return std::to_string(v.AsInt());
      if (v.is_float()) return FormatDouble(v.AsFloat());
      if (v.is_bool()) return std::string(v.AsBool() ? "true" : "false");
      return TypeError("cannot concatenate " + std::string(ValueTypeName(v.type())) +
                       " to a string");
    };
    CYPHER_ASSIGN_OR_RETURN(std::string left, text(a));
    CYPHER_ASSIGN_OR_RETURN(std::string right, text(b));
    return Value::String(left + right);
  }
  if (a.is_list() && b.is_list()) {
    ValueList out = a.AsList();
    for (const Value& v : b.AsList()) out.push_back(v);
    return Value::List(std::move(out));
  }
  if (a.is_list()) {
    ValueList out = a.AsList();
    out.push_back(b);
    return Value::List(std::move(out));
  }
  return TypeError(std::string("cannot add ") + ValueTypeName(a.type()) +
                   " and " + ValueTypeName(b.type()));
}

Result<Value> EvalArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_number() || !b.is_number()) {
    return TypeError(std::string("cannot apply arithmetic to ") +
                     ValueTypeName(a.type()) + " and " +
                     ValueTypeName(b.type()));
  }
  bool ints = a.is_int() && b.is_int();
  switch (op) {
    case BinaryOp::kSub:
      if (ints) {
        int64_t out;
        if (__builtin_sub_overflow(a.AsInt(), b.AsInt(), &out)) {
          return TypeError("integer overflow in subtraction");
        }
        return Value::Int(out);
      }
      return Value::Float(a.AsNumber() - b.AsNumber());
    case BinaryOp::kMul:
      if (ints) {
        int64_t out;
        if (__builtin_mul_overflow(a.AsInt(), b.AsInt(), &out)) {
          return TypeError("integer overflow in multiplication");
        }
        return Value::Int(out);
      }
      return Value::Float(a.AsNumber() * b.AsNumber());
    case BinaryOp::kDiv:
      if (ints) {
        if (b.AsInt() == 0) return TypeError("division by zero");
        return Value::Int(a.AsInt() / b.AsInt());
      }
      return Value::Float(a.AsNumber() / b.AsNumber());
    case BinaryOp::kMod:
      if (ints) {
        if (b.AsInt() == 0) return TypeError("modulo by zero");
        return Value::Int(a.AsInt() % b.AsInt());
      }
      return Value::Float(std::fmod(a.AsNumber(), b.AsNumber()));
    case BinaryOp::kPow:
      return Value::Float(std::pow(a.AsNumber(), b.AsNumber()));
    default:
      CYPHER_CHECK(false && "not an arithmetic op");
  }
  return Value::Null();
}

Tri EvalStringOp(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Tri::kNull;
  if (!a.is_string() || !b.is_string()) return Tri::kNull;
  const std::string& s = a.AsString();
  const std::string& t = b.AsString();
  switch (op) {
    case BinaryOp::kStartsWith:
      return TriFromBool(s.size() >= t.size() && s.compare(0, t.size(), t) == 0);
    case BinaryOp::kEndsWith:
      return TriFromBool(s.size() >= t.size() &&
                         s.compare(s.size() - t.size(), t.size(), t) == 0);
    case BinaryOp::kContains:
      return TriFromBool(s.find(t) != std::string::npos);
    default:
      CYPHER_CHECK(false && "not a string op");
  }
  return Tri::kNull;
}

Tri EvalIn(const Value& item, const Value& list) {
  if (list.is_null()) return Tri::kNull;
  Tri acc = Tri::kFalse;
  for (const Value& element : list.AsList()) {
    Tri t = CypherEquals(item, element);
    if (t == Tri::kTrue) return Tri::kTrue;
    if (t == Tri::kNull) acc = Tri::kNull;
  }
  return acc;
}

// ---- Value kernels ----------------------------------------------------------
//
// The tree evaluator below applies these rules to already-evaluated operands.

/// Calls a non-aggregate built-in function on evaluated arguments.
Result<Value> EvalScalarFunction(const EvalContext& ctx,
                                 const std::string& name,
                                 std::vector<Value> args) {
  const PropertyGraph& g = *ctx.graph;
  auto arity = [&](size_t n) -> Status {
    if (args.size() == n) return Status::OK();
    return TypeError("function " + name + " expects " + std::to_string(n) +
                     " argument(s), got " + std::to_string(args.size()));
  };
  if (name == "coalesce") {
    for (Value& v : args) {
      if (!v.is_null()) return std::move(v);
    }
    return Value::Null();
  }
  if (name == "id") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_node()) return Value::Int(args[0].AsNode().value);
    if (args[0].is_rel()) return Value::Int(args[0].AsRel().value);
    return TypeError("id() expects a node or relationship");
  }
  if (name == "labels") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_node()) return TypeError("labels() expects a node");
    ValueList out;
    for (Symbol s : g.node(args[0].AsNode()).labels) {
      out.push_back(Value::String(g.LabelName(s)));
    }
    return Value::List(std::move(out));
  }
  if (name == "type") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_rel()) return TypeError("type() expects a relationship");
    return Value::String(g.TypeName(g.rel(args[0].AsRel()).type));
  }
  if (name == "properties") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    const PropertyMap* props = nullptr;
    if (args[0].is_node()) {
      props = &g.node(args[0].AsNode()).props;
    } else if (args[0].is_rel()) {
      props = &g.rel(args[0].AsRel()).props;
    } else if (args[0].is_map()) {
      return std::move(args[0]);
    } else {
      return TypeError("properties() expects a node, relationship or map");
    }
    ValueMap out;
    for (const auto& [key, value] : props->entries()) {
      out.emplace(g.KeyName(key), value);
    }
    return Value::Map(std::move(out));
  }
  if (name == "keys") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    ValueList out;
    if (args[0].is_node() || args[0].is_rel()) {
      const PropertyMap& props = args[0].is_node()
                                     ? g.node(args[0].AsNode()).props
                                     : g.rel(args[0].AsRel()).props;
      for (const auto& [key, value] : props.entries()) {
        out.push_back(Value::String(g.KeyName(key)));
      }
    } else if (args[0].is_map()) {
      for (const auto& [key, value] : args[0].AsMap()) {
        out.push_back(Value::String(key));
      }
    } else {
      return TypeError("keys() expects a node, relationship or map");
    }
    return Value::List(std::move(out));
  }
  if (name == "size") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_list()) {
      return Value::Int(static_cast<int64_t>(args[0].AsList().size()));
    }
    if (args[0].is_string()) {
      return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
    }
    if (args[0].is_map()) {
      return Value::Int(static_cast<int64_t>(args[0].AsMap().size()));
    }
    return TypeError("size() expects a list, string or map");
  }
  if (name == "length") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_path()) {
      return Value::Int(static_cast<int64_t>(args[0].AsPath().rels.size()));
    }
    if (args[0].is_list()) {
      return Value::Int(static_cast<int64_t>(args[0].AsList().size()));
    }
    return TypeError("length() expects a path or list");
  }
  if (name == "head") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) return TypeError("head() expects a list");
    const ValueList& list = args[0].AsList();
    return list.empty() ? Value::Null() : list.front();
  }
  if (name == "last") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) return TypeError("last() expects a list");
    const ValueList& list = args[0].AsList();
    return list.empty() ? Value::Null() : list.back();
  }
  if (name == "nodes") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_path()) return TypeError("nodes() expects a path");
    ValueList out;
    for (NodeId n : args[0].AsPath().nodes) out.push_back(Value::Node(n));
    return Value::List(std::move(out));
  }
  if (name == "relationships") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_path()) return TypeError("relationships() expects a path");
    ValueList out;
    for (RelId r : args[0].AsPath().rels) out.push_back(Value::Rel(r));
    return Value::List(std::move(out));
  }
  if (name == "startnode" || name == "endnode") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_rel()) return TypeError(name + "() expects a relationship");
    const RelData& rel = g.rel(args[0].AsRel());
    return Value::Node(name == "startnode" ? rel.src : rel.tgt);
  }
  if (name == "exists") {
    CYPHER_RETURN_NOT_OK(arity(1));
    return Value::Bool(!args[0].is_null());
  }
  if (name == "tostring") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_string()) return std::move(args[0]);
    if (args[0].is_int()) return Value::String(std::to_string(args[0].AsInt()));
    if (args[0].is_float()) return Value::String(FormatDouble(args[0].AsFloat()));
    if (args[0].is_bool()) {
      return Value::String(args[0].AsBool() ? "true" : "false");
    }
    return TypeError("toString() expects a scalar");
  }
  if (name == "tointeger") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_int()) return std::move(args[0]);
    if (args[0].is_float()) {
      return Value::Int(static_cast<int64_t>(args[0].AsFloat()));
    }
    if (args[0].is_string()) {
      const std::string& s = args[0].AsString();
      size_t pos = 0;
      long long parsed = 0;
      bool ok = !s.empty();
      if (ok) {
        char* end = nullptr;
        parsed = std::strtoll(s.c_str(), &end, 10);
        pos = static_cast<size_t>(end - s.c_str());
        ok = pos == s.size();
      }
      return ok ? Value::Int(parsed) : Value::Null();
    }
    return TypeError("toInteger() expects a number or string");
  }
  if (name == "tofloat") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_float()) return std::move(args[0]);
    if (args[0].is_int()) {
      return Value::Float(static_cast<double>(args[0].AsInt()));
    }
    if (args[0].is_string()) {
      const std::string& s = args[0].AsString();
      char* end = nullptr;
      double parsed = std::strtod(s.c_str(), &end);
      bool ok = !s.empty() && end == s.c_str() + s.size();
      return ok ? Value::Float(parsed) : Value::Null();
    }
    return TypeError("toFloat() expects a number or string");
  }
  if (name == "abs") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_int()) {
      int64_t v = args[0].AsInt();
      return Value::Int(v < 0 ? -v : v);
    }
    if (args[0].is_float()) return Value::Float(std::fabs(args[0].AsFloat()));
    return TypeError("abs() expects a number");
  }
  if (name == "range") {
    if (args.size() != 2 && args.size() != 3) {
      return TypeError("range() expects 2 or 3 arguments");
    }
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      if (!v.is_int()) return TypeError("range() expects integers");
    }
    int64_t lo = args[0].AsInt();
    int64_t hi = args[1].AsInt();
    int64_t step = args.size() == 3 ? args[2].AsInt() : 1;
    if (step == 0) return TypeError("range() step must not be zero");
    ValueList out;
    if (step > 0) {
      for (int64_t i = lo; i <= hi; i += step) out.push_back(Value::Int(i));
    } else {
      for (int64_t i = lo; i >= hi; i += step) out.push_back(Value::Int(i));
    }
    return Value::List(std::move(out));
  }
  if (name == "reverse") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_list()) {
      ValueList out = args[0].AsList();
      std::reverse(out.begin(), out.end());
      return Value::List(std::move(out));
    }
    if (args[0].is_string()) {
      std::string out = args[0].AsString();
      std::reverse(out.begin(), out.end());
      return Value::String(std::move(out));
    }
    return TypeError("reverse() expects a list or string");
  }
  if (name == "substring") {
    if (args.size() != 2 && args.size() != 3) {
      return TypeError("substring() expects 2 or 3 arguments");
    }
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_int() ||
        (args.size() == 3 && !args[2].is_int())) {
      return TypeError("substring() expects (string, int[, int])");
    }
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt();
    if (start < 0) return TypeError("substring() start must be >= 0");
    if (static_cast<size_t>(start) >= s.size()) return Value::String("");
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                     : std::string::npos;
    return Value::String(s.substr(static_cast<size_t>(start), len));
  }
  if (name == "left" || name == "right") {
    CYPHER_RETURN_NOT_OK(arity(2));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_int() || args[1].AsInt() < 0) {
      return TypeError(name + "() expects (string, non-negative int)");
    }
    const std::string& s = args[0].AsString();
    size_t n = std::min(s.size(), static_cast<size_t>(args[1].AsInt()));
    return Value::String(name == "left" ? s.substr(0, n)
                                        : s.substr(s.size() - n));
  }
  if (name == "replace") {
    CYPHER_RETURN_NOT_OK(arity(3));
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) return TypeError("replace() expects strings");
    }
    const std::string& s = args[0].AsString();
    const std::string& find = args[1].AsString();
    const std::string& repl = args[2].AsString();
    if (find.empty()) return Value::String(s);
    std::string out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(find, pos);
      if (hit == std::string::npos) {
        out += s.substr(pos);
        return Value::String(std::move(out));
      }
      out += s.substr(pos, hit - pos);
      out += repl;
      pos = hit + find.size();
    }
  }
  if (name == "split") {
    CYPHER_RETURN_NOT_OK(arity(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_string()) {
      return TypeError("split() expects strings");
    }
    const std::string& s = args[0].AsString();
    const std::string& sep = args[1].AsString();
    ValueList out;
    if (sep.empty()) {
      for (char c : s) out.push_back(Value::String(std::string(1, c)));
      return Value::List(std::move(out));
    }
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(sep, pos);
      if (hit == std::string::npos) {
        out.push_back(Value::String(s.substr(pos)));
        return Value::List(std::move(out));
      }
      out.push_back(Value::String(s.substr(pos, hit - pos)));
      pos = hit + sep.size();
    }
  }
  if (name == "trim" || name == "ltrim" || name == "rtrim") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string()) return TypeError(name + "() expects a string");
    std::string s = args[0].AsString();
    if (name != "rtrim") {
      size_t b = 0;
      while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) {
        ++b;
      }
      s.erase(0, b);
    }
    if (name != "ltrim") {
      size_t e = s.size();
      while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
      }
      s.erase(e);
    }
    return Value::String(std::move(s));
  }
  if (name == "floor" || name == "ceil" || name == "round" ||
      name == "sqrt") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_number()) return TypeError(name + "() expects a number");
    double x = args[0].AsNumber();
    if (name == "floor") return Value::Float(std::floor(x));
    if (name == "ceil") return Value::Float(std::ceil(x));
    if (name == "round") return Value::Float(std::round(x));
    if (x < 0) return TypeError("sqrt() of a negative number");
    return Value::Float(std::sqrt(x));
  }
  if (name == "sign") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_number()) return TypeError("sign() expects a number");
    double x = args[0].AsNumber();
    return Value::Int(x > 0 ? 1 : x < 0 ? -1 : 0);
  }
  if (name == "tail") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) return TypeError("tail() expects a list");
    const ValueList& list = args[0].AsList();
    if (list.empty()) return Value::List({});
    return Value::List(ValueList(list.begin() + 1, list.end()));
  }
  if (name == "tolower" || name == "toupper") {
    CYPHER_RETURN_NOT_OK(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string()) return TypeError(name + "() expects a string");
    std::string out = args[0].AsString();
    for (char& c : out) {
      c = name == "tolower"
              ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
              : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    return Value::String(std::move(out));
  }
  return TypeError("unknown function: " + name);
}

/// The kUnary rule: NOT / unary minus / unary plus on an evaluated operand.
Result<Value> EvalUnaryValue(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot: {
      if (v.is_null()) return Value::Null();
      if (!v.is_bool()) return TypeError("NOT expects a boolean");
      return Value::Bool(!v.AsBool());
    }
    case UnaryOp::kMinus: {
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_float()) return Value::Float(-v.AsFloat());
      return TypeError("unary minus expects a number");
    }
    case UnaryOp::kPlus: {
      if (v.is_null() || v.is_number()) return v;
      return TypeError("unary plus expects a number");
    }
  }
  return Value::Null();
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// The comparison operators under ternary logic (IsComparison(op)).
Tri CompareTri(BinaryOp op, const Value& a, const Value& b) {
  switch (op) {
    case BinaryOp::kEq:
      return CypherEquals(a, b);
    case BinaryOp::kNe:
      return TriNot(CypherEquals(a, b));
    case BinaryOp::kLt:
      return CypherLess(a, b);
    case BinaryOp::kGt:
      return CypherLess(b, a);
    case BinaryOp::kLe:
      return TriOr(CypherLess(a, b), CypherEquals(a, b));
    case BinaryOp::kGe:
      return TriOr(CypherLess(b, a), CypherEquals(a, b));
    default:
      break;
  }
  CYPHER_CHECK(false && "not a comparison operator");
  return Tri::kNull;
}

/// The kBinary rule on two evaluated operands (both sides are always
/// evaluated first — ternary logic needs them).
Result<Value> EvalBinaryValues(BinaryOp op, const Value& a, const Value& b) {
  auto as_tri = [](const Value& v) -> Result<Tri> {
    if (v.is_null()) return Tri::kNull;
    if (v.is_bool()) return TriFromBool(v.AsBool());
    return TypeError("expected a boolean operand");
  };
  switch (op) {
    case BinaryOp::kAnd: {
      CYPHER_ASSIGN_OR_RETURN(Tri ta, as_tri(a));
      CYPHER_ASSIGN_OR_RETURN(Tri tb, as_tri(b));
      return TriToValue(TriAnd(ta, tb));
    }
    case BinaryOp::kOr: {
      CYPHER_ASSIGN_OR_RETURN(Tri ta, as_tri(a));
      CYPHER_ASSIGN_OR_RETURN(Tri tb, as_tri(b));
      return TriToValue(TriOr(ta, tb));
    }
    case BinaryOp::kXor: {
      CYPHER_ASSIGN_OR_RETURN(Tri ta, as_tri(a));
      CYPHER_ASSIGN_OR_RETURN(Tri tb, as_tri(b));
      return TriToValue(TriXor(ta, tb));
    }
    case BinaryOp::kAdd:
      return EvalAdd(a, b);
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
    case BinaryOp::kPow:
      return EvalArith(op, a, b);
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe:
      return TriToValue(CompareTri(op, a, b));
    case BinaryOp::kIn: {
      if (!b.is_null() && !b.is_list()) {
        return TypeError("IN expects a list on the right-hand side");
      }
      return TriToValue(EvalIn(a, b));
    }
    case BinaryOp::kStartsWith:
    case BinaryOp::kEndsWith:
    case BinaryOp::kContains:
      return TriToValue(EvalStringOp(op, a, b));
  }
  return Value::Null();
}

/// The kProperty rule on an evaluated object (node / relationship / map).
Result<Value> EvalPropertyValue(const EvalContext& ctx, const Value& object,
                                const std::string& key) {
  if (object.is_null()) return Value::Null();
  if (object.is_node()) {
    Symbol sym = ctx.graph->FindKey(key);
    if (sym == kNoSymbol) return Value::Null();
    return ctx.graph->node(object.AsNode()).props.Get(sym);
  }
  if (object.is_rel()) {
    Symbol sym = ctx.graph->FindKey(key);
    if (sym == kNoSymbol) return Value::Null();
    return ctx.graph->rel(object.AsRel()).props.Get(sym);
  }
  if (object.is_map()) {
    auto it = object.AsMap().find(key);
    return it == object.AsMap().end() ? Value::Null() : it->second;
  }
  return TypeError(std::string("cannot access property '") + key + "' of " +
                   ValueTypeName(object.type()));
}

/// The kHasLabels rule on an evaluated object.
Result<Value> EvalHasLabelsValue(const EvalContext& ctx, const Value& object,
                                 const std::vector<std::string>& labels) {
  if (object.is_null()) return Value::Null();
  if (!object.is_node()) {
    return TypeError("label predicate applies to nodes only");
  }
  NodeId id = object.AsNode();
  for (const std::string& label : labels) {
    Symbol s = ctx.graph->FindLabel(label);
    if (s == kNoSymbol || !ctx.graph->NodeHasLabel(id, s)) {
      return Value::Bool(false);
    }
  }
  return Value::Bool(true);
}

/// The kIndex subscript rule on evaluated object and index values.
Result<Value> EvalIndexValue(const Value& object, const Value& index) {
  if (object.is_null() || index.is_null()) return Value::Null();
  if (object.is_list()) {
    if (!index.is_int()) return TypeError("list index must be an integer");
    int64_t i = index.AsInt();
    const ValueList& list = object.AsList();
    if (i < 0) i += static_cast<int64_t>(list.size());
    if (i < 0 || i >= static_cast<int64_t>(list.size())) {
      return Value::Null();
    }
    return list[static_cast<size_t>(i)];
  }
  if (object.is_map()) {
    if (!index.is_string()) return TypeError("map key must be a string");
    auto it = object.AsMap().find(index.AsString());
    return it == object.AsMap().end() ? Value::Null() : it->second;
  }
  return TypeError("subscript applies to lists and maps");
}

/// The predicate coercion used by WHERE: bool -> Tri, null -> kNull, any
/// other type -> the "predicate evaluated to <type>" ExecutionError.
Result<Tri> PredicateTri(const Value& v) {
  if (v.is_bool()) return TriFromBool(v.AsBool());
  if (v.is_null()) return Tri::kNull;
  return Status::ExecutionError("predicate evaluated to " +
                                std::string(ValueTypeName(v.type())) +
                                ", expected a boolean");
}

}  // namespace

// ---- Row-loop fast path -----------------------------------------------------

RowEval::RowEval(const EvalContext& ctx, const Table& table, const Expr& expr)
    : ctx_(&ctx), table_(&table), expr_(&expr) {
  const Expr* base = &expr;
  const PropertyExpr* prop = nullptr;
  if (expr.kind == ExprKind::kProperty) {
    prop = static_cast<const PropertyExpr*>(&expr);
    base = prop->object.get();
  }
  if (base->kind != ExprKind::kVariable) return;
  size_t col = table.ColumnIndex(static_cast<const VariableExpr*>(base)->name);
  if (col == Table::kNoColumn) return;  // FOREACH/CREATE overlay or error
  col_ = col;
  if (prop == nullptr) {
    mode_ = Mode::kColumn;
  } else {
    key_ = ctx.graph->FindKey(prop->key);
    mode_ = Mode::kColumnProp;
  }
}

Result<Value> RowEval::Eval(size_t row) const {
  if (mode_ != Mode::kGeneric) {
    const Value& base = table_->At(row, col_);
    if (mode_ == Mode::kColumn) return base;
    if (base.is_null()) return Value::Null();
    if (base.is_node()) {
      if (key_ == kNoSymbol) return Value::Null();
      return ctx_->graph->node(base.AsNode()).props.Get(key_);
    }
    if (base.is_rel()) {
      if (key_ == kNoSymbol) return Value::Null();
      return ctx_->graph->rel(base.AsRel()).props.Get(key_);
    }
    // Maps and type errors: the generic property rules apply below.
  }
  return Evaluate(*ctx_, Bindings(table_, row), *expr_);
}

// ---- Match-assignment fast path ---------------------------------------------

std::optional<MatchOperand> MatchOperand::Resolve(const EvalContext& ctx,
                                                  const Table& table,
                                                  const Expr& expr) {
  MatchOperand out;
  out.graph_ = ctx.graph;
  out.table_ = &table;
  const Expr* base = &expr;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out.constant_ = static_cast<const LiteralExpr&>(expr).value;
      return out;
    case ExprKind::kParameter: {
      if (ctx.params == nullptr) return std::nullopt;
      auto it = ctx.params->find(static_cast<const ParameterExpr&>(expr).name);
      if (it == ctx.params->end()) return std::nullopt;
      out.constant_ = it->second;
      return out;
    }
    case ExprKind::kVariable:
      out.mode_ = Mode::kVariable;
      break;
    case ExprKind::kProperty: {
      const auto& prop = static_cast<const PropertyExpr&>(expr);
      base = prop.object.get();
      out.mode_ = Mode::kProperty;
      out.key_ = ctx.graph->FindKey(prop.key);
      break;
    }
    default:
      return std::nullopt;
  }
  if (base->kind != ExprKind::kVariable) return std::nullopt;
  out.name_ = &static_cast<const VariableExpr*>(base)->name;
  out.col_ = table.ColumnIndex(*out.name_);
  return out;
}

const Value* MatchOperand::Eval(size_t row,
                                const MatchAssignment& assignment) const {
  static const Value kNull;
  if (mode_ == Mode::kConstant) return &constant_;
  const Value* base;
  if (const MatchBinding* binding = assignment.FindBinding(*name_)) {
    // A node or relationship the match resolved: read the key off the
    // record it bound instead of resolving the entity again.
    if (mode_ == Mode::kProperty && binding->props != nullptr) {
      return key_ == kNoSymbol ? &kNull : &binding->props->Get(key_);
    }
    base = &binding->value;
  } else {
    if (col_ == Table::kNoColumn) return nullptr;
    base = &table_->At(row, col_);
  }
  if (mode_ == Mode::kVariable || base->is_null()) return base;
  if (base->is_node()) {
    if (key_ == kNoSymbol) return &kNull;
    return &graph_->node(base->AsNode()).props.Get(key_);
  }
  if (base->is_rel()) {
    if (key_ == kNoSymbol) return &kNull;
    return &graph_->rel(base->AsRel()).props.Get(key_);
  }
  return nullptr;  // maps and type errors: the generic property rules
}

namespace {

/// Appends the leaves of an AND tree to `out`.
void Conjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(expr);
    if (bin.op == BinaryOp::kAnd) {
      Conjuncts(*bin.left, out);
      Conjuncts(*bin.right, out);
      return;
    }
  }
  out->push_back(&expr);
}

}  // namespace

WhereEval::WhereEval(const EvalContext& ctx, const Table& table,
                     const Expr* where)
    : ctx_(&ctx), table_(&table), where_(where) {
  if (where == nullptr) return;
  std::vector<const Expr*> leaves;
  Conjuncts(*where, &leaves);
  for (const Expr* leaf : leaves) {
    if (leaf->kind != ExprKind::kBinary) return;
    const auto& cmp = static_cast<const BinaryExpr&>(*leaf);
    if (!IsComparison(cmp.op)) return;
    std::optional<MatchOperand> left =
        MatchOperand::Resolve(ctx, table, *cmp.left);
    std::optional<MatchOperand> right =
        MatchOperand::Resolve(ctx, table, *cmp.right);
    if (!left.has_value() || !right.has_value()) return;
    conjuncts_.push_back({cmp.op, *std::move(left), *std::move(right)});
  }
  resolved_ = true;
}

Result<Tri> WhereEval::Eval(size_t row,
                            const MatchAssignment& assignment) const {
  if (where_ == nullptr) return Tri::kTrue;
  if (resolved_) {
    // Comparisons never fail on resolved operands and AND is associative
    // under ternary logic, so folding the leaves left to right is the tree
    // evaluator's result.
    Tri acc = Tri::kTrue;
    bool generic = false;
    for (const Comparison& cmp : conjuncts_) {
      const Value* left = cmp.left.Eval(row, assignment);
      const Value* right = cmp.right.Eval(row, assignment);
      if (left == nullptr || right == nullptr) {
        generic = true;
        break;
      }
      acc = TriAnd(acc, CompareTri(cmp.op, *left, *right));
    }
    if (!generic) return acc;
  }
  Bindings bindings(table_, row);
  for (const MatchBinding& binding : assignment.entries()) {
    bindings.Push(*binding.name, binding.value);
  }
  return EvaluatePredicate(*ctx_, bindings, *where_);
}

// ---- Aggregates -------------------------------------------------------------

namespace {

Result<Value> EvaluateAggregateCall(const EvalContext& ctx,
                                    const FunctionExpr* call, bool count_star,
                                    const AggregateScope& agg) {
  if (count_star) {
    return Value::Int(static_cast<int64_t>(agg.rows->size()));
  }
  CYPHER_CHECK(call != nullptr && call->args.size() == 1);
  RowEval arg(ctx, *agg.table, *call->args[0]);
  // count(expr) without DISTINCT needs no materialized values at all.
  if (call->name == "count" && !call->distinct) {
    int64_t n = 0;
    for (size_t row : *agg.rows) {
      CYPHER_ASSIGN_OR_RETURN(Value v, arg.Eval(row));
      if (!v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  // Gather the argument value for every row of the group; null inputs are
  // skipped by every aggregate (SQL-style).
  std::vector<Value> values;
  values.reserve(agg.rows->size());
  for (size_t row : *agg.rows) {
    CYPHER_ASSIGN_OR_RETURN(Value v, arg.Eval(row));
    if (!v.is_null()) values.push_back(std::move(v));
  }
  if (call->distinct) {
    ValueSet seen;
    std::vector<Value> unique;
    for (Value& v : values) {
      if (seen.insert(v).second) unique.push_back(v);
    }
    values = std::move(unique);
  }
  const std::string& name = call->name;
  if (name == "count") {
    return Value::Int(static_cast<int64_t>(values.size()));
  }
  if (name == "collect") {
    return Value::List(std::move(values));
  }
  if (name == "sum") {
    bool all_int = true;
    double fsum = 0;
    int64_t isum = 0;
    for (const Value& v : values) {
      if (!v.is_number()) {
        return TypeError("sum() expects numeric values");
      }
      if (v.is_int()) {
        if (__builtin_add_overflow(isum, v.AsInt(), &isum)) {
          return TypeError("integer overflow in sum()");
        }
      } else {
        all_int = false;
      }
      fsum += v.AsNumber();
    }
    return all_int ? Value::Int(isum) : Value::Float(fsum);
  }
  if (name == "avg") {
    if (values.empty()) return Value::Null();
    double total = 0;
    for (const Value& v : values) {
      if (!v.is_number()) return TypeError("avg() expects numeric values");
      total += v.AsNumber();
    }
    return Value::Float(total / static_cast<double>(values.size()));
  }
  if (name == "min" || name == "max") {
    if (values.empty()) return Value::Null();
    const Value* best = &values[0];
    for (const Value& v : values) {
      int cmp = TotalOrderCompare(v, *best);
      if ((name == "min" && cmp < 0) || (name == "max" && cmp > 0)) best = &v;
    }
    return *best;
  }
  return TypeError("unknown aggregate: " + name);
}

}  // namespace

Result<Value> Evaluate(const EvalContext& ctx, const Bindings& bindings,
                       const Expr& expr, const AggregateScope* agg) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value;
    case ExprKind::kParameter: {
      const auto& e = static_cast<const ParameterExpr&>(expr);
      if (ctx.params != nullptr) {
        auto it = ctx.params->find(e.name);
        if (it != ctx.params->end()) return it->second;
      }
      return Status::ExecutionError("missing parameter: $" + e.name);
    }
    case ExprKind::kVariable: {
      const auto& e = static_cast<const VariableExpr&>(expr);
      std::optional<Value> v = bindings.Lookup(e.name);
      if (!v.has_value()) {
        return Status::SemanticError("undefined variable: " + e.name);
      }
      return *std::move(v);
    }
    case ExprKind::kProperty: {
      const auto& e = static_cast<const PropertyExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value object, Evaluate(ctx, bindings, *e.object, agg));
      return EvalPropertyValue(ctx, object, e.key);
    }
    case ExprKind::kHasLabels: {
      const auto& e = static_cast<const HasLabelsExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value object, Evaluate(ctx, bindings, *e.object, agg));
      return EvalHasLabelsValue(ctx, object, e.labels);
    }
    case ExprKind::kUnary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, *e.operand, agg));
      return EvalUnaryValue(e.op, v);
    }
    case ExprKind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      // Logical connectives do not short-circuit structurally (ternary
      // logic needs both sides for null handling), but errors on either
      // side surface.
      CYPHER_ASSIGN_OR_RETURN(Value a, Evaluate(ctx, bindings, *e.left, agg));
      CYPHER_ASSIGN_OR_RETURN(Value b, Evaluate(ctx, bindings, *e.right, agg));
      return EvalBinaryValues(e.op, a, b);
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, *e.operand, agg));
      bool is_null = v.is_null();
      return Value::Bool(e.negated ? !is_null : is_null);
    }
    case ExprKind::kList: {
      const auto& e = static_cast<const ListExpr&>(expr);
      ValueList items;
      items.reserve(e.items.size());
      for (const auto& item : e.items) {
        CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, *item, agg));
        items.push_back(std::move(v));
      }
      return Value::List(std::move(items));
    }
    case ExprKind::kMap: {
      const auto& e = static_cast<const MapExpr&>(expr);
      ValueMap entries;
      for (const auto& [key, value] : e.entries) {
        CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, *value, agg));
        entries[key] = std::move(v);
      }
      return Value::Map(std::move(entries));
    }
    case ExprKind::kIndex: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value object, Evaluate(ctx, bindings, *e.object, agg));
      CYPHER_ASSIGN_OR_RETURN(Value index, Evaluate(ctx, bindings, *e.index, agg));
      return EvalIndexValue(object, index);
    }
    case ExprKind::kFunction: {
      const auto& e = static_cast<const FunctionExpr&>(expr);
      if (IsAggregateFunctionName(e.name)) {
        if (agg == nullptr) {
          return Status::SemanticError("aggregate function " + e.name +
                                       "() is not allowed here");
        }
        if (e.args.size() != 1) {
          return TypeError("aggregate " + e.name + "() expects 1 argument");
        }
        return EvaluateAggregateCall(ctx, &e, /*count_star=*/false, *agg);
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& arg : e.args) {
        CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, *arg, agg));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(ctx, e.name, std::move(args));
    }
    case ExprKind::kCountStar: {
      if (agg == nullptr) {
        return Status::SemanticError("count(*) is not allowed here");
      }
      return EvaluateAggregateCall(ctx, nullptr, /*count_star=*/true, *agg);
    }
    case ExprKind::kCase: {
      const auto& e = static_cast<const CaseExpr&>(expr);
      for (const auto& [cond, value] : e.whens) {
        CYPHER_ASSIGN_OR_RETURN(Value c, Evaluate(ctx, bindings, *cond, agg));
        if (c.is_bool() && c.AsBool()) {
          return Evaluate(ctx, bindings, *value, agg);
        }
      }
      if (e.otherwise) return Evaluate(ctx, bindings, *e.otherwise, agg);
      return Value::Null();
    }
    case ExprKind::kListComprehension: {
      const auto& e = static_cast<const ListComprehensionExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value list, Evaluate(ctx, bindings, *e.list, agg));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeError("list comprehension expects a list");
      }
      Bindings scoped = bindings;
      ValueList out;
      for (const Value& element : list.AsList()) {
        scoped.Push(e.variable, element);
        bool keep = true;
        if (e.where != nullptr) {
          CYPHER_ASSIGN_OR_RETURN(Tri pass,
                                  EvaluatePredicate(ctx, scoped, *e.where));
          keep = pass == Tri::kTrue;
        }
        if (keep) {
          if (e.projection != nullptr) {
            CYPHER_ASSIGN_OR_RETURN(
                Value v, Evaluate(ctx, scoped, *e.projection, nullptr));
            out.push_back(std::move(v));
          } else {
            out.push_back(element);
          }
        }
        scoped.Pop();
      }
      return Value::List(std::move(out));
    }
    case ExprKind::kQuantifier: {
      const auto& e = static_cast<const QuantifierExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value list, Evaluate(ctx, bindings, *e.list, agg));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeError("quantifier expects a list");
      }
      Bindings scoped = bindings;
      size_t trues = 0;
      size_t falses = 0;
      size_t nulls = 0;
      for (const Value& element : list.AsList()) {
        scoped.Push(e.variable, element);
        CYPHER_ASSIGN_OR_RETURN(Tri t,
                                EvaluatePredicate(ctx, scoped, *e.predicate));
        scoped.Pop();
        switch (t) {
          case Tri::kTrue:
            ++trues;
            break;
          case Tri::kFalse:
            ++falses;
            break;
          case Tri::kNull:
            ++nulls;
            break;
        }
      }
      switch (e.quantifier) {
        case QuantifierKind::kAll:
          if (falses > 0) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(true);
        case QuantifierKind::kAny:
          if (trues > 0) return Value::Bool(true);
          if (nulls > 0) return Value::Null();
          return Value::Bool(false);
        case QuantifierKind::kNone:
          if (trues > 0) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(true);
        case QuantifierKind::kSingle:
          if (trues > 1) return Value::Bool(false);
          if (nulls > 0) return Value::Null();
          return Value::Bool(trues == 1);
      }
      return Value::Null();
    }
    case ExprKind::kReduce: {
      const auto& e = static_cast<const ReduceExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value acc, Evaluate(ctx, bindings, *e.init, agg));
      CYPHER_ASSIGN_OR_RETURN(Value list, Evaluate(ctx, bindings, *e.list, agg));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeError("reduce expects a list");
      }
      Bindings scoped = bindings;
      for (const Value& element : list.AsList()) {
        scoped.Push(e.accumulator, acc);
        scoped.Push(e.variable, element);
        CYPHER_ASSIGN_OR_RETURN(Value next,
                                Evaluate(ctx, scoped, *e.body, nullptr));
        scoped.Pop();
        scoped.Pop();
        acc = std::move(next);
      }
      return acc;
    }
    case ExprKind::kPatternPredicate: {
      const auto& e = static_cast<const PatternPredicateExpr&>(expr);
      std::vector<PathPattern> patterns;
      patterns.push_back(ClonePattern(e.pattern));
      CYPHER_ASSIGN_OR_RETURN(
          bool found,
          HasMatch(ctx, bindings, patterns, MatchOptions{ctx.match_mode}));
      return Value::Bool(found);
    }
    case ExprKind::kMapProjection: {
      const auto& e = static_cast<const MapProjectionExpr&>(expr);
      CYPHER_ASSIGN_OR_RETURN(Value subject,
                              Evaluate(ctx, bindings, *e.subject, agg));
      if (subject.is_null()) return Value::Null();
      const PropertyMap* props = nullptr;
      const ValueMap* map = nullptr;
      if (subject.is_node()) {
        props = &ctx.graph->node(subject.AsNode()).props;
      } else if (subject.is_rel()) {
        props = &ctx.graph->rel(subject.AsRel()).props;
      } else if (subject.is_map()) {
        map = &subject.AsMap();
      } else {
        return TypeError(
            "map projection applies to nodes, relationships and maps");
      }
      auto lookup = [&](const std::string& key) -> Value {
        if (props != nullptr) {
          Symbol sym = ctx.graph->FindKey(key);
          return sym == kNoSymbol ? Value() : props->Get(sym);
        }
        auto it = map->find(key);
        return it == map->end() ? Value() : it->second;
      };
      ValueMap out;
      for (const MapProjectionItem& item : e.items) {
        switch (item.kind) {
          case MapProjectionItem::Kind::kAll: {
            if (props != nullptr) {
              for (const auto& [key, value] : props->entries()) {
                out[ctx.graph->KeyName(key)] = value;
              }
            } else {
              for (const auto& [key, value] : *map) out[key] = value;
            }
            break;
          }
          case MapProjectionItem::Kind::kProperty:
            out[item.name] = lookup(item.name);
            break;
          case MapProjectionItem::Kind::kPair: {
            CYPHER_ASSIGN_OR_RETURN(Value v,
                                    Evaluate(ctx, bindings, *item.value, agg));
            out[item.name] = std::move(v);
            break;
          }
          case MapProjectionItem::Kind::kVariable: {
            std::optional<Value> v = bindings.Lookup(item.name);
            if (!v.has_value()) {
              return Status::SemanticError("undefined variable: " + item.name);
            }
            out[item.name] = *std::move(v);
            break;
          }
        }
      }
      return Value::Map(std::move(out));
    }
  }
  CYPHER_CHECK(false && "unreachable expression kind");
  return Value::Null();
}

Result<Tri> EvaluatePredicate(const EvalContext& ctx, const Bindings& bindings,
                              const Expr& expr) {
  CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx, bindings, expr, nullptr));
  return PredicateTri(v);
}

}  // namespace cypher

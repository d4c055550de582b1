// A minimal JSON value, parser, and printer for the experiment harness.
//
// The harness needs to read declarative ExperimentSpecs and write result
// reports, both without an external dependency. This is deliberately a
// small subset: UTF-8 strings with the standard escapes, doubles (printed
// losslessly enough for exact round-trips at the precision we emit),
// arrays, and objects whose keys keep insertion order so the emitted report
// is byte-stable.
#ifndef SRC_EXP_JSON_H_
#define SRC_EXP_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mexp {

class Json;
using JsonArray = std::vector<Json>;
// Insertion-ordered object: emitted order == build order, which keeps the
// report schema stable and the bytes deterministic.
using JsonMembers = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}              // NOLINT
  Json(int i) : type_(Type::kNumber), num_(i) {}                 // NOLINT
  Json(std::int64_t i)                                           // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(std::uint64_t u)                                          // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(JsonArray a) : type_(Type::kArray), arr_(std::move(a)) {}     // NOLINT

  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const { return is_bool() ? bool_ : fallback; }
  double AsDouble(double fallback = 0.0) const { return is_number() ? num_ : fallback; }
  std::int64_t AsInt(std::int64_t fallback = 0) const {
    return is_number() ? static_cast<std::int64_t>(num_) : fallback;
  }
  const std::string& AsString() const { return str_; }

  // ---- Arrays ----
  const JsonArray& items() const { return arr_; }
  JsonArray& items() { return arr_; }
  void Push(Json v) {
    type_ = Type::kArray;
    arr_.push_back(std::move(v));
  }
  std::size_t size() const { return is_array() ? arr_.size() : members_.size(); }

  // ---- Objects ----
  const JsonMembers& members() const { return members_; }
  // Sets (or replaces) a member, keeping first-insertion order.
  void Set(const std::string& key, Json v) {
    type_ = Type::kObject;
    for (auto& kv : members_) {
      if (kv.first == key) {
        kv.second = std::move(v);
        return;
      }
    }
    members_.emplace_back(key, std::move(v));
  }
  // Member lookup; returns nullptr when absent (or not an object).
  const Json* Find(const std::string& key) const {
    for (const auto& kv : members_) {
      if (kv.first == key) {
        return &kv.second;
      }
    }
    return nullptr;
  }

  // Convenience typed getters with defaults, for spec parsing.
  double GetDouble(const std::string& key, double fallback) const {
    const Json* j = Find(key);
    return j != nullptr && j->is_number() ? j->num_ : fallback;
  }
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const {
    const Json* j = Find(key);
    return j != nullptr && j->is_number() ? static_cast<std::int64_t>(j->num_) : fallback;
  }
  std::string GetString(const std::string& key, const std::string& fallback) const {
    const Json* j = Find(key);
    return j != nullptr && j->is_string() ? j->str_ : fallback;
  }

  // Serializes with 2-space indentation and deterministic number formatting.
  void Dump(std::ostream& os, int indent = 0) const;
  std::string ToString() const;

  // Formats a double exactly as the serializer does (integers without a
  // decimal point, otherwise shortest round-trippable form).
  static std::string NumberToString(double d);

  // Parses a JSON document. On failure returns null JSON and sets *error to
  // a message with the byte offset.
  static Json Parse(const std::string& text, std::string* error);

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  JsonMembers members_;
};

}  // namespace mexp

#endif  // SRC_EXP_JSON_H_

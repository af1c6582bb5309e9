#include "reference.hpp"

#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace perfbench {

std::uint64_t output(const Outputs& out, const std::string& key) {
  for (const auto& [k, v] : out)
    if (k == key) return v;
  return 0;
}

std::string diff_outputs(const Outputs& expected, const Outputs& got) {
  if (expected.size() != got.size())
    return "output count " + std::to_string(got.size()) + " != expected " +
           std::to_string(expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].first != got[i].first)
      return "output '" + got[i].first + "' where '" + expected[i].first +
             "' was expected";
    if (expected[i].second != got[i].second)
      return expected[i].first + " = " + std::to_string(got[i].second) +
             ", expected " + std::to_string(expected[i].second);
  }
  return "";
}

rw::Result<ReferenceFile> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return rw::make_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto doc = rw::json::parse(text);
  if (!doc.ok()) return rw::make_error(path + ": " + doc.error().to_string());
  const rw::json::Value& root = doc.value();
  if (root.get_string("schema") != "perfbench-reference-1")
    return rw::make_error(path + ": unknown schema");
  ReferenceFile ref;
  ref.seed = root.get_u64("seed");
  const rw::json::Value* inputs = root.get("inputs");
  if (inputs == nullptr || !inputs->is_object())
    return rw::make_error(path + ": missing 'inputs' object");
  for (const auto& [key, fields] : inputs->members()) {
    Outputs out;
    for (const auto& [name, v] : fields.members()) {
      bool exact = false;
      const std::uint64_t u = v.u64(&exact);
      if (!exact)
        return rw::make_error(path + ": " + key + "." + name +
                              " is not an unsigned integer");
      out.emplace_back(name, u);
    }
    ref.table.emplace(key, std::move(out));
  }
  return ref;
}

rw::Status save_reference(const std::string& path, const ReferenceFile& ref) {
  // One input per line keeps the file small and its diffs readable.
  std::string text = "{\n  \"schema\": \"perfbench-reference-1\",\n"
                     "  \"seed\": " + std::to_string(ref.seed) +
                     ",\n  \"inputs\": {";
  const char* sep = "\n";
  for (const auto& [key, out] : ref.table) {
    rw::json::Writer w(/*pretty=*/false);
    w.begin_object();
    for (const auto& [name, v] : out) w.key(name).value(v);
    w.end_object();
    text += sep;
    text += "    \"" + rw::json::Writer::escape(key) + "\": " + w.str();
    sep = ",\n";
  }
  text += "\n  }\n}\n";
  std::ofstream f(path);
  f << text;
  f.close();
  if (!f) return rw::make_error("cannot write " + path);
  return {};
}

}  // namespace perfbench

// Nesting budgets of the recursive-descent parsers: adversarially deep
// input is a typed Result error, never a stack overflow, while every
// source the repo itself ships still parses.
#include <gtest/gtest.h>

#include <string>

#include "cic/archfile.hpp"
#include "common/xml.hpp"
#include "lint/corpus.hpp"
#include "recoder/parser.hpp"
#include "recoder/printer.hpp"

namespace rw {
namespace {

constexpr std::size_t kDeep = 100'000;

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

bool too_deep(const Error& e) {
  return e.message.find("nesting too deep") != std::string::npos;
}

TEST(ParseDepth, XmlDeepNestingIsATypedError) {
  const auto r = xml::parse(repeat("<a>", kDeep) + repeat("</a>", kDeep));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(too_deep(r.error())) << r.error().to_string();
  // The same well-formed shape within the budget parses.
  EXPECT_TRUE(xml::parse(repeat("<a>", 100) + repeat("</a>", 100)).ok());
}

TEST(ParseDepth, ArchFileDeepNestingIsATypedError) {
  const auto r = cic::parse_arch_file(
      "<architecture>" + repeat("<a>", kDeep) + repeat("</a>", kDeep) +
      "</architecture>");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(too_deep(r.error())) << r.error().to_string();
}

TEST(ParseDepth, ExpressionDeepParenthesesAreATypedError) {
  const auto r = recoder::parse_expression(repeat("(", kDeep) + "1" +
                                           repeat(")", kDeep));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(too_deep(r.error())) << r.error().to_string();
  // Unary chains recurse the same way.
  const auto u = recoder::parse_expression(repeat("-", kDeep) + "1");
  ASSERT_FALSE(u.ok());
  EXPECT_TRUE(too_deep(u.error())) << u.error().to_string();
  EXPECT_TRUE(recoder::parse_expression(repeat("(", 100) + "1" +
                                        repeat(")", 100))
                  .ok());
}

TEST(ParseDepth, ProgramDeepBlocksAreATypedError) {
  const auto r = recoder::parse_program("int main() " + repeat("{", kDeep) +
                                        repeat("}", kDeep));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(too_deep(r.error())) << r.error().to_string();
  EXPECT_TRUE(recoder::parse_program("int main() " + repeat("{", 100) +
                                     repeat("}", 100))
                  .ok());
}

TEST(ParseDepth, ShippedCorpusAndArchfilesStillParse) {
  std::size_t programs = 0;
  for (const lint::CorpusProgram& p : lint::build_corpus()) {
    if (!p.has_program) continue;
    const auto r = recoder::parse_program(recoder::print_program(p.program));
    EXPECT_TRUE(r.ok()) << p.name << ": " << r.error().to_string();
    ++programs;
  }
  EXPECT_GT(programs, 0u);

  cic::ArchInfo mesh = cic::ArchInfo::cell_like(8);
  mesh.platform.interconnect = sim::PlatformConfig::Icn::kMesh;
  for (const cic::ArchInfo& a :
       {cic::ArchInfo::cell_like(), cic::ArchInfo::smp_like(), mesh}) {
    const auto r = cic::parse_arch_file(cic::arch_to_xml(a));
    EXPECT_TRUE(r.ok()) << a.name << ": " << r.error().to_string();
  }
}

}  // namespace
}  // namespace rw

// Documentation drift guards: facts the docs quote that the code defines.
// A doc that goes stale fails here instead of misleading a reader.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/sim/json.h"

#ifndef FABACUS_DOCS_DIR
#error "build must define FABACUS_DOCS_DIR (see tests/CMakeLists.txt)"
#endif

namespace fabacus {
namespace {

// The doc's text with every whitespace run (line breaks included) collapsed
// to one space, so a quoted phrase may wrap anywhere.
std::string ReadDocFlattened(const std::string& name) {
  std::ifstream f(std::string(FABACUS_DOCS_DIR) + "/" + name);
  EXPECT_TRUE(f.good()) << "cannot read docs/" << name;
  std::ostringstream ss;
  ss << f.rdbuf();
  std::string flat;
  for (const char c : ss.str()) {
    const bool space = c == ' ' || c == '\n' || c == '\t' || c == '\r';
    if (!space) {
      flat += c;
    } else if (!flat.empty() && flat.back() != ' ') {
      flat += ' ';
    }
  }
  return flat;
}

TEST(DocsDrift, ObservabilityQuotesCurrentSchemaVersion) {
  const std::string doc = ReadDocFlattened("OBSERVABILITY.md");
  const std::string version = std::to_string(kJsonSchemaVersion);
  EXPECT_NE(doc.find("(`schema_version`, currently " + version + ")"), std::string::npos)
      << "docs/OBSERVABILITY.md must quote schema_version " << version
      << " (kJsonSchemaVersion in src/sim/json.h)";
  EXPECT_NE(doc.find("**v" + version + "**"), std::string::npos)
      << "docs/OBSERVABILITY.md version history has no v" << version << " entry";
}

}  // namespace
}  // namespace fabacus

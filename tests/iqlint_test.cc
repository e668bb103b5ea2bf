// Unit tests for the iqlint lexer, the symbol layer, and the nine
// project-contract checks. These work on in-memory snippets; the
// fixture corpus under tools/iqlint/testdata/ is exercised end-to-end
// (binary, exit codes) by the iqlint_fixtures shell test.

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "iqlint/iqlint.h"
#include "iqlint/lexer.h"

namespace iqlint {
namespace {

LintConfig SmallConfig() {
  LintConfig config;
  config.module_deps = {
      {"common", {}},
      {"obs", {"common"}},
      {"io", {"common", "obs"}},
      {"core", {"io", "obs"}},
  };
  return config;
}

std::vector<Finding> RunAll(const std::vector<LexedFile>& files,
                            const LintConfig& config) {
  return RunChecks(files, config, /*enabled=*/{});
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokensCarryLines) {
  const LexedFile f = LexFile("a.cc", "int x = 42;\nfloat y;\n");
  ASSERT_EQ(f.tokens.size(), 8u);
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[0].kind, Token::Kind::kIdent);
  EXPECT_EQ(f.tokens[3].text, "42");
  EXPECT_EQ(f.tokens[3].kind, Token::Kind::kNumber);
  EXPECT_EQ(f.tokens[3].line, 1);
  EXPECT_EQ(f.tokens[5].text, "float");
  EXPECT_EQ(f.tokens[5].line, 2);
}

TEST(Lexer, CommentsAreDroppedButSuppressionsKept) {
  const LexedFile f = LexFile(
      "a.cc",
      "// iqlint: allow(cast-safety): bounded by caller\n"
      "int x; /* new malloc */\n");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].check, "cast-safety");
  EXPECT_EQ(f.suppressions[0].reason, "bounded by caller");
  EXPECT_EQ(f.suppressions[0].line, 1);
  // No token from either comment survives.
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "new");
    EXPECT_NE(t.text, "malloc");
  }
}

TEST(Lexer, IncludesExtracted) {
  const LexedFile f = LexFile(
      "a.cc", "#include \"io/storage.h\"\n#include <vector>\nint x;\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "io/storage.h");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_EQ(f.includes[0].line, 1);
  EXPECT_EQ(f.includes[1].path, "vector");
  EXPECT_TRUE(f.includes[1].angled);
}

TEST(Lexer, StringLiteralsAreStringTokens) {
  const LexedFile f = LexFile("a.cc", "const char* s = \"iq_x_total\";\n");
  bool found = false;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kString) {
      EXPECT_EQ(t.text, "iq_x_total");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

TEST(Layering, AllowedEdgesAreClean) {
  const std::vector<LexedFile> files = {
      LexFile("src/io/a.h", "#include \"obs/m.h\"\n#include \"common/x.h\"\n"),
      LexFile("src/core/b.h", "#include \"io/a.h\"\n"),
  };
  std::vector<Finding> out;
  CheckLayering(files, SmallConfig(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(Layering, TransitiveDependencyIsAllowed) {
  // core -> io -> obs; core also declares obs, but common is implicit
  // everywhere and transitive closure lets core see io's deps.
  LintConfig config;
  config.module_deps = {
      {"common", {}}, {"obs", {"common"}}, {"io", {"obs"}}, {"core", {"io"}}};
  const std::vector<LexedFile> files = {
      LexFile("src/core/b.h", "#include \"obs/m.h\"\n"),
  };
  std::vector<Finding> out;
  CheckLayering(files, config, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Layering, BackEdgeIsFlaggedWithAnchor) {
  const std::vector<LexedFile> files = {
      LexFile("src/obs/bad.h", "// comment\n#include \"io/cache.h\"\n"),
  };
  std::vector<Finding> out;
  CheckLayering(files, SmallConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "layering");
  EXPECT_EQ(out[0].file, "src/obs/bad.h");
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[0].message.find("module 'obs'"), std::string::npos);
  EXPECT_NE(out[0].message.find("io/cache.h"), std::string::npos);
}

TEST(Layering, IncludeCycleIsReported) {
  const std::vector<LexedFile> files = {
      LexFile("src/io/x.h", "#include \"obs/a.h\"\n"),
      LexFile("src/obs/a.h", "#include \"io/x.h\"\n"),
  };
  std::vector<Finding> out;
  CheckLayering(files, SmallConfig(), &out);
  // The obs -> io back edge plus the explicit cycle report.
  ASSERT_EQ(out.size(), 2u);
  bool saw_cycle = false;
  for (const Finding& f : out) {
    if (f.message.find("include cycle") != std::string::npos) saw_cycle = true;
  }
  EXPECT_TRUE(saw_cycle);
}

TEST(Layering, DeclaredCycleInConfigIsAnError) {
  LintConfig config;
  config.module_deps = {{"a", {"b"}}, {"b", {"a"}}};
  std::vector<Finding> out;
  CheckLayering({}, config, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].check, "layering");
  EXPECT_NE(out[0].message.find("cycle"), std::string::npos);
}

TEST(Layering, FileModuleOverrideApplies) {
  LintConfig config = SmallConfig();
  config.module_deps["format"] = {"io"};
  config.file_module_overrides["core/format.h"] = "format";
  // As "core" this include would be fine; as "format" it is, too —
  // but format must not include core.
  const std::vector<LexedFile> files = {
      LexFile("src/core/format.h", "#include \"core/tree.h\"\n"),
  };
  std::vector<Finding> out;
  CheckLayering(files, config, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("module 'format'"), std::string::npos);
}

TEST(Layering, ProjectModulesMatchSrcDirectories) {
  // The layering check skips undeclared src/ directories, so the
  // checked-in DAG must name exactly the real ones (plus the modules
  // that exist only through a file override) or drift goes unnoticed.
  const std::filesystem::path src =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "src";
  ASSERT_TRUE(std::filesystem::is_directory(src)) << src;
  std::set<std::string> expected;
  for (const auto& entry : std::filesystem::directory_iterator(src)) {
    if (entry.is_directory()) {
      expected.insert(entry.path().filename().string());
    }
  }
  const LintConfig config = ProjectConfig();
  for (const auto& [file, module] : config.file_module_overrides) {
    expected.insert(module);
  }
  std::set<std::string> declared;
  for (const auto& [module, deps] : config.module_deps) {
    declared.insert(module);
  }
  EXPECT_EQ(declared, expected);
}

// ---------------------------------------------------------------------------
// hotpath-alloc
// ---------------------------------------------------------------------------

TEST(HotPathAlloc, CleanFunctionPasses) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "IQ_HOT_NOALLOC\n"
      "double Sum(const double* x, size_t n) {\n"
      "  double a = 0;\n"
      "  for (size_t i = 0; i < n; ++i) a += x[i];\n"
      "  return a;\n"
      "}\n"
      "void Outside() { v.push_back(1); }\n")};
  std::vector<Finding> out;
  CheckHotPathAlloc(files, &out);
  EXPECT_TRUE(out.empty());
}

TEST(HotPathAlloc, NewAndGrowthCallsAreFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "IQ_HOT_NOALLOC\n"
      "void F(std::vector<int>* out) {\n"
      "  out->push_back(1);\n"
      "  int* p = new int(3);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckHotPathAlloc(files, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].check, "hotpath-alloc");
  EXPECT_EQ(out[0].line, 3);
  EXPECT_NE(out[0].message.find("push_back"), std::string::npos);
  EXPECT_EQ(out[1].line, 4);
  EXPECT_NE(out[1].message.find("operator new"), std::string::npos);
}

TEST(HotPathAlloc, RegionMarkersCoverOnlyTheRegion) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "void F(std::vector<int>* out) {\n"
      "  out->reserve(4);\n"
      "  IQ_HOT_NOALLOC_BEGIN;\n"
      "  out->push_back(1);\n"
      "  IQ_HOT_NOALLOC_END;\n"
      "  out->push_back(2);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckHotPathAlloc(files, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 4);
}

TEST(HotPathAlloc, LocalOwningContainerIsFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "IQ_HOT_NOALLOC\n"
      "void F(const std::vector<int>& in) {\n"
      "  std::vector<std::pair<int, int>> pairs;\n"
      "  std::string name = \"x\";\n"
      "  const std::vector<int>& view = in;\n"
      "  std::vector<int>* ptr = nullptr;\n"
      "  std::vector<int>::const_iterator it = in.begin();\n"
      "  for (std::string s : names) {}\n"
      "}\n"
      "void Outside() { std::vector<int> v; }\n")};
  std::vector<Finding> out;
  CheckHotPathAlloc(files, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].line, 3);
  EXPECT_NE(out[0].message.find("std::vector"), std::string::npos);
  EXPECT_EQ(out[1].line, 4);
  EXPECT_NE(out[1].message.find("std::string"), std::string::npos);
  EXPECT_EQ(out[2].line, 8);
}

TEST(HotPathAlloc, UnterminatedRegionIsAnError) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.cc", "void F() {\n  IQ_HOT_NOALLOC_BEGIN;\n}\n")};
  std::vector<Finding> out;
  CheckHotPathAlloc(files, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("without a matching"), std::string::npos);
}

// ---------------------------------------------------------------------------
// lock-rank
// ---------------------------------------------------------------------------

constexpr char kRankedPair[] =
    "class C {\n"
    " public:\n"
    "  void InOrder() {\n"
    "    MutexLock a(&low_mu_);\n"
    "    MutexLock b(&high_mu_);\n"
    "  }\n"
    "  void Backwards() {\n"
    "    MutexLock a(&high_mu_);\n"
    "    MutexLock b(&low_mu_);\n"
    "  }\n"
    " private:\n"
    "  Mutex low_mu_{IQ_LOCK_RANK(10)};\n"
    "  Mutex high_mu_{IQ_LOCK_RANK(20)};\n"
    "};\n";

TEST(LockRank, OutOfOrderNestedAcquisitionIsFlagged) {
  const std::vector<LexedFile> files = {LexFile("src/core/a.cc", kRankedPair)};
  std::vector<Finding> out;
  CheckLockRank(files, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "lock-rank");
  EXPECT_EQ(out[0].line, 9);
  EXPECT_NE(out[0].message.find("'low_mu_' (rank 10)"), std::string::npos);
  EXPECT_NE(out[0].message.find("'high_mu_' (rank 20"), std::string::npos);
}

TEST(LockRank, SequentialScopesDoNotNest) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "class C {\n"
      "  void F() {\n"
      "    { MutexLock a(&high_mu_); }\n"
      "    { MutexLock b(&low_mu_); }\n"
      "  }\n"
      "  Mutex low_mu_{IQ_LOCK_RANK(10)};\n"
      "  Mutex high_mu_{IQ_LOCK_RANK(20)};\n"
      "};\n")};
  std::vector<Finding> out;
  CheckLockRank(files, &out);
  EXPECT_TRUE(out.empty());
}

TEST(LockRank, OutOfLineMethodResolvesThroughQualifier) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.h",
              "class D {\n"
              "  void F();\n"
              "  Mutex first_{IQ_LOCK_RANK(5)};\n"
              "  Mutex second_{IQ_LOCK_RANK(6)};\n"
              "};\n"),
      LexFile("src/core/a.cc",
              "void D::F() {\n"
              "  MutexLock a(&second_);\n"
              "  MutexLock b(&first_);\n"
              "}\n"),
  };
  std::vector<Finding> out;
  CheckLockRank(files, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].file, "src/core/a.cc");
  EXPECT_EQ(out[0].line, 3);
}

TEST(LockRank, UnrankedMutexMemberIsFlagged) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.h", "class E {\n  Mutex mu_;\n};\n")};
  std::vector<Finding> out;
  CheckLockRank(files, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[0].message.find("'E::mu_'"), std::string::npos);
  EXPECT_NE(out[0].message.find("no IQ_LOCK_RANK"), std::string::npos);
}

// ---------------------------------------------------------------------------
// cast-safety
// ---------------------------------------------------------------------------

TEST(CastSafety, FloatToIntegralCastIsFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "uint32_t F(float rel, uint32_t cells) {\n"
      "  return static_cast<uint32_t>(rel * cells);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckCastSafety(files, LintConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "cast-safety");
  EXPECT_EQ(out[0].line, 2);
}

TEST(CastSafety, FloatFunctionResultIsFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "int64_t F(double v) { return static_cast<int64_t>(std::floor(v)); }\n")};
  std::vector<Finding> out;
  CheckCastSafety(files, LintConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
}

TEST(CastSafety, IntegerAndWideningCastsAreClean) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "uint32_t A(uint64_t x) { return static_cast<uint32_t>(x); }\n"
      "double B(int x) { return static_cast<double>(x); }\n"
      "size_t C(uint32_t dims) {\n"
      "  return static_cast<size_t>(sizeof(float) * dims);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckCastSafety(files, LintConfig(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(CastSafety, AllowlistedFileIsExempt) {
  const std::vector<LexedFile> files = {LexFile(
      "src/common/cast.h",
      "uint32_t F(double v) { return static_cast<uint32_t>(v); }\n")};
  std::vector<Finding> out;
  CheckCastSafety(files, LintConfig(), &out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// metric-hygiene
// ---------------------------------------------------------------------------

TEST(MetricHygiene, LiteralOutsideRegistryIsFlagged) {
  LintConfig config;
  const std::vector<LexedFile> files = {
      LexFile(config.metric_registry,
              "inline constexpr char kA[] = \"iq_a_total\";\n"),
      LexFile("src/core/u.cc",
              "void F() { Counter(\"iq_a_total\"); G(\"iq_b_total\"); }\n"),
  };
  std::vector<Finding> out;
  CheckMetricHygiene(files, config, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].check, "metric-hygiene");
  EXPECT_NE(out[0].message.find("spelled as a literal"), std::string::npos);
  EXPECT_NE(out[1].message.find("not declared"), std::string::npos);
}

TEST(MetricHygiene, DuplicateAndMalformedRegistryEntries) {
  LintConfig config;
  const std::vector<LexedFile> files = {
      LexFile(config.metric_registry,
              "inline constexpr char kA[] = \"iq_a_total\";\n"
              "inline constexpr char kB[] = \"iq_a_total\";\n"
              "inline constexpr char kC[] = \"iq_Bad_Case\";\n"),
  };
  std::vector<Finding> out;
  CheckMetricHygiene(files, config, &out);
  ASSERT_EQ(out.size(), 2u);
  // Sorted by line by the caller normally; here: duplicate then case.
  EXPECT_NE(out[0].message.find("duplicate"), std::string::npos);
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[1].message.find("not iq_[a-z0-9_]+"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Suppressions / RunChecks plumbing
// ---------------------------------------------------------------------------

TEST(Suppression, CoversTheNextCodeLine) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "float Source();\n"
      "uint32_t F() {\n"
      "  // iqlint: allow(cast-safety): fixture reason\n"
      "  return static_cast<uint32_t>(Source());\n"
      "}\n")};
  const std::vector<Finding> out = RunAll(files, SmallConfig());
  EXPECT_TRUE(out.empty());
}

TEST(Suppression, DoesNotLeakPastTheNextStatement) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "float Source();\n"
      "uint32_t F() {\n"
      "  // iqlint: allow(cast-safety): first only\n"
      "  uint32_t a = static_cast<uint32_t>(Source());\n"
      "  uint32_t b = static_cast<uint32_t>(Source());\n"
      "  return a + b;\n"
      "}\n")};
  const std::vector<Finding> out = RunAll(files, SmallConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 5);
}

TEST(Suppression, WrongCheckNameDoesNotSuppress) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "float Source();\n"
      "// iqlint: allow(hotpath-alloc): wrong check\n"
      "uint32_t F() { return static_cast<uint32_t>(Source()); }\n")};
  const std::vector<Finding> out = RunAll(files, SmallConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "cast-safety");
}

TEST(Suppression, UnknownCheckNameIsItselfFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.cc",
      "// iqlint: allow(cast-saftey): typo\n"
      "int x;\n")};
  const std::vector<Finding> out = RunAll(files, SmallConfig());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "suppression");
  EXPECT_NE(out[0].message.find("cast-saftey"), std::string::npos);
}

// ---------------------------------------------------------------------------
// symbol layer
// ---------------------------------------------------------------------------

TEST(Symbols, MembersCarryAnnotations) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.h",
      "class C {\n"
      " public:\n"
      "  int Get() const IQ_REQUIRES(mu_);\n"
      " private:\n"
      "  Mutex mu_{IQ_LOCK_RANK(10)};\n"
      "  int guarded_ IQ_GUARDED_BY(mu_) = 0;\n"
      "  std::atomic<int> hits_{0};\n"
      "  const int dims_ = 4;\n"
      "  int free_ IQ_UNGUARDED(\"ctor only\") = 0;\n"
      "};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  const ClassSymbol* c = table.FindClass("C");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->HasRankedMutex());
  const MemberSymbol* mu = c->FindMember("mu_");
  ASSERT_NE(mu, nullptr);
  EXPECT_TRUE(mu->is_mutex);
  EXPECT_EQ(mu->lock_rank, 10);
  const MemberSymbol* guarded = c->FindMember("guarded_");
  ASSERT_NE(guarded, nullptr);
  EXPECT_EQ(guarded->guarded_by, "mu_");
  ASSERT_NE(c->FindMember("hits_"), nullptr);
  EXPECT_TRUE(c->FindMember("hits_")->is_atomic);
  ASSERT_NE(c->FindMember("dims_"), nullptr);
  EXPECT_TRUE(c->FindMember("dims_")->is_const);
  ASSERT_NE(c->FindMember("free_"), nullptr);
  EXPECT_TRUE(c->FindMember("free_")->unguarded_ok);
  ASSERT_EQ(c->methods.count("Get"), 1u);
  EXPECT_EQ(c->methods.at("Get").requires_locks.count("mu_"), 1u);
}

TEST(Symbols, OutOfLineBodyAttributesToItsClass) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.h", "class C {\n  void F();\n  int x_ = 0;\n};\n"),
      LexFile("src/core/a.cc", "void C::F() { x_ = 1; }\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  ASSERT_EQ(table.functions.size(), 1u);
  EXPECT_EQ(table.functions[0].class_name, "C");
  EXPECT_EQ(table.functions[0].method_name, "F");
  EXPECT_FALSE(table.functions[0].is_ctor_or_dtor);
}

TEST(Symbols, TypestateProtocolIsRecorded) {
  const std::vector<LexedFile> files = {LexFile(
      "src/quant/w.h",
      "class Writer {\n"
      " public:\n"
      "  IQ_TYPESTATE(\"open\");\n"
      "  IQ_TS_FINAL(\"flushed\");\n"
      "  void Put(int v) IQ_TS_REQUIRES(\"open\");\n"
      "  void Flush() IQ_TS_TRANSITION(\"open\", \"flushed\");\n"
      "};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  const ClassSymbol* c = table.FindClass("Writer");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->has_typestate);
  EXPECT_EQ(c->initial_state, "open");
  EXPECT_EQ(c->final_state, "flushed");
  ASSERT_EQ(c->methods.count("Put"), 1u);
  EXPECT_EQ(c->methods.at("Put").ts_requires.count("open"), 1u);
  ASSERT_EQ(c->methods.count("Flush"), 1u);
  EXPECT_EQ(c->methods.at("Flush").ts_from, "open");
  EXPECT_EQ(c->methods.at("Flush").ts_to, "flushed");
}

// ---------------------------------------------------------------------------
// guarded-by-coverage
// ---------------------------------------------------------------------------

TEST(GuardedByCoverage, UnannotatedMemberOfRankedClassIsFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.h",
      "class C {\n"
      "  Mutex mu_{IQ_LOCK_RANK(10)};\n"
      "  int counter_ = 0;\n"
      "};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckGuardedByCoverage(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "guarded-by-coverage");
  EXPECT_EQ(out[0].line, 3);
  EXPECT_NE(out[0].message.find("'C::counter_'"), std::string::npos);
}

TEST(GuardedByCoverage, AnnotatedAtomicConstAndExemptAreClean) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.h",
      "class C {\n"
      "  Mutex mu_{IQ_LOCK_RANK(10)};\n"
      "  CondVar cv_;\n"
      "  int counter_ IQ_GUARDED_BY(mu_) = 0;\n"
      "  std::atomic<int> hits_{0};\n"
      "  const int dims_ = 4;\n"
      "  int setup_ IQ_UNGUARDED(\"ctor only\") = 0;\n"
      "};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckGuardedByCoverage(table, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GuardedByCoverage, ClassWithoutRankedMutexIsIgnored) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.h", "class C {\n  int counter_ = 0;\n};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckGuardedByCoverage(table, &out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// lock-set
// ---------------------------------------------------------------------------

constexpr char kGuardedClass[] =
    "class C {\n"
    " public:\n"
    "  void Locked() { MutexLock lock(&mu_); value_ = 1; }\n"
    "  int Annotated() const IQ_REQUIRES(mu_) { return value_; }\n"
    "  int Bare() const { return value_; }\n"
    " private:\n"
    "  mutable Mutex mu_{IQ_LOCK_RANK(10)};\n"
    "  int value_ IQ_GUARDED_BY(mu_) = 0;\n"
    "};\n";

TEST(LockSet, UnlockedAccessIsFlaggedLockedAndAnnotatedAreNot) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.h", kGuardedClass)};
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckLockSet(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "lock-set");
  EXPECT_EQ(out[0].line, 5);
  EXPECT_NE(out[0].message.find("'C::value_'"), std::string::npos);
  EXPECT_NE(out[0].message.find("'C::Bare'"), std::string::npos);
}

TEST(LockSet, OutOfLineDefinitionUsesDeclarationAnnotations) {
  const std::vector<LexedFile> files = {
      LexFile("src/core/a.h",
              "class C {\n"
              "  int Get() const IQ_REQUIRES(mu_);\n"
              "  int Peek() const;\n"
              "  mutable Mutex mu_{IQ_LOCK_RANK(10)};\n"
              "  int value_ IQ_GUARDED_BY(mu_) = 0;\n"
              "};\n"),
      LexFile("src/core/a.cc",
              "int C::Get() const { return value_; }\n"
              "int C::Peek() const { return value_; }\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckLockSet(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].file, "src/core/a.cc");
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[0].message.find("'C::Peek'"), std::string::npos);
}

TEST(LockSet, ScopeEndReleasesTheLock) {
  const std::vector<LexedFile> files = {LexFile(
      "src/core/a.h",
      "class C {\n"
      "  void F() {\n"
      "    { MutexLock lock(&mu_); value_ = 1; }\n"
      "    value_ = 2;\n"
      "  }\n"
      "  Mutex mu_{IQ_LOCK_RANK(10)};\n"
      "  int value_ IQ_GUARDED_BY(mu_) = 0;\n"
      "};\n")};
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckLockSet(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 4);
}

// ---------------------------------------------------------------------------
// typestate
// ---------------------------------------------------------------------------

constexpr char kWriterProtocol[] =
    "class Writer {\n"
    " public:\n"
    "  IQ_TYPESTATE(\"open\");\n"
    "  IQ_TS_FINAL(\"flushed\");\n"
    "  void Put(int v) IQ_TS_REQUIRES(\"open\");\n"
    "  void Flush() IQ_TS_TRANSITION(\"open\", \"flushed\");\n"
    "};\n";

TEST(Typestate, UseAfterFinalTransitionIsFlagged) {
  const std::vector<LexedFile> files = {
      LexFile("src/quant/w.h", kWriterProtocol),
      LexFile("src/core/u.cc",
              "void F() {\n"
              "  Writer w;\n"
              "  w.Flush();\n"
              "  w.Put(1);\n"
              "}\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckTypestate(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "typestate");
  EXPECT_EQ(out[0].line, 4);
  EXPECT_NE(out[0].message.find("requires state 'open'"), std::string::npos);
  EXPECT_NE(out[0].message.find("'flushed'"), std::string::npos);
}

TEST(Typestate, LeavingScopeBeforeFinalStateIsFlagged) {
  const std::vector<LexedFile> files = {
      LexFile("src/quant/w.h", kWriterProtocol),
      LexFile("src/core/u.cc",
              "void F() {\n"
              "  Writer w;\n"
              "  w.Put(1);\n"
              "}\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckTypestate(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].message.find("leaves scope in state 'open'"),
            std::string::npos);
}

TEST(Typestate, CompleteProtocolIsClean) {
  const std::vector<LexedFile> files = {
      LexFile("src/quant/w.h", kWriterProtocol),
      LexFile("src/core/u.cc",
              "void F() {\n"
              "  Writer w;\n"
              "  w.Put(1);\n"
              "  w.Flush();\n"
              "}\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckTypestate(table, &out);
  EXPECT_TRUE(out.empty());
}

TEST(Typestate, QueryBeforeBindIsFlagged) {
  const std::vector<LexedFile> files = {
      LexFile("src/quant/k.h",
              "class Kernel {\n"
              " public:\n"
              "  IQ_TYPESTATE(\"unbound\");\n"
              "  void Bind() IQ_TS_TRANSITION(\"*\", \"bound\");\n"
              "  void Query() IQ_TS_REQUIRES(\"bound\");\n"
              "};\n"),
      LexFile("src/core/u.cc",
              "void F() {\n"
              "  Kernel k;\n"
              "  k.Query();\n"
              "  k.Bind();\n"
              "  k.Query();\n"
              "}\n"),
  };
  const SymbolTable table = BuildSymbolTable(files);
  std::vector<Finding> out;
  CheckTypestate(table, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].line, 3);
  EXPECT_NE(out[0].message.find("in state 'unbound'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// float-determinism
// ---------------------------------------------------------------------------

TEST(FloatDeterminism, FmaInContractFileIsFlagged) {
  const std::vector<LexedFile> files = {LexFile(
      "src/quant/filter_kernel.cc",
      "double F(double a, double b, double c) {\n"
      "  return std::fma(a, b, c);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckFloatDeterminism(files, LintConfig(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "float-determinism");
  EXPECT_EQ(out[0].line, 2);
}

TEST(FloatDeterminism, FmaOutsideContractFilesIsAllowed) {
  const std::vector<LexedFile> files = {LexFile(
      "src/costmodel/cost_model.cc",
      "double F(double a, double b, double c) {\n"
      "  return std::fma(a, b, c);\n"
      "}\n")};
  std::vector<Finding> out;
  CheckFloatDeterminism(files, LintConfig(), &out);
  EXPECT_TRUE(out.empty());
}

TEST(FloatDeterminism, BannedFlagOnContractTargetIsFlagged) {
  LintConfig config;
  config.build_files.emplace_back(
      "src/CMakeLists.txt",
      "add_library(iq_quant filter_kernel.cc)\n"
      "target_compile_options(iq_quant PRIVATE -mfma)\n");
  std::vector<Finding> out;
  CheckFloatDeterminism({}, config, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].check, "float-determinism");
  EXPECT_EQ(out[0].file, "src/CMakeLists.txt");
  EXPECT_EQ(out[0].line, 2);
  EXPECT_NE(out[0].message.find("-mfma"), std::string::npos);
}

TEST(FloatDeterminism, BenignFlagsOnContractTargetAreClean) {
  LintConfig config;
  config.build_files.emplace_back(
      "src/CMakeLists.txt",
      "add_library(iq_quant filter_kernel.cc)\n"
      "target_compile_options(iq_quant PRIVATE -O2 -Wall)\n");
  std::vector<Finding> out;
  CheckFloatDeterminism({}, config, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RunChecks, EnabledSetRestrictsChecks) {
  const std::vector<LexedFile> files = {LexFile(
      "src/obs/a.h",
      "#include \"io/x.h\"\n"
      "float Source();\n"
      "uint32_t F() { return static_cast<uint32_t>(Source()); }\n")};
  const std::vector<Finding> layering_only =
      RunChecks(files, SmallConfig(), {"layering"});
  ASSERT_EQ(layering_only.size(), 1u);
  EXPECT_EQ(layering_only[0].check, "layering");
  const std::vector<Finding> both = RunAll(files, SmallConfig());
  EXPECT_EQ(both.size(), 2u);
}

TEST(RunChecks, FindingsAreSortedByFileAndLine) {
  const std::vector<LexedFile> files = {
      LexFile("src/obs/z.h", "#include \"io/x.h\"\n"),
      LexFile("src/obs/a.h", "#include \"io/x.h\"\n"),
  };
  const std::vector<Finding> out = RunAll(files, SmallConfig());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].file, "src/obs/a.h");
  EXPECT_EQ(out[1].file, "src/obs/z.h");
}

}  // namespace
}  // namespace iqlint

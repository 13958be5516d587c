#include "service/request.h"

#include <gtest/gtest.h>

#include "data/generators.h"

namespace colossal {
namespace {

TEST(CanonicalizeRequestTest, SigmaCollapsesToAbsoluteSupport) {
  const TransactionDatabase db = MakeDiag(20);  // 20 transactions

  ColossalMinerOptions by_sigma;
  by_sigma.sigma = 0.5;
  ColossalMinerOptions by_count;
  by_count.sigma = -1.0;
  by_count.min_support_count = 10;

  StatusOr<CanonicalRequest> a = CanonicalizeRequest(db, by_sigma);
  StatusOr<CanonicalRequest> b = CanonicalizeRequest(db, by_count);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->options == b->options);
  EXPECT_EQ(a->options_hash, b->options_hash);
  EXPECT_EQ(a->options.min_support_count, 10);
  EXPECT_EQ(a->options.sigma, -1.0);
}

TEST(CanonicalizeRequestTest, ThreadCountIsErased) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions one;
  one.min_support_count = 3;
  one.num_threads = 1;
  ColossalMinerOptions eight = one;
  eight.num_threads = 8;

  StatusOr<CanonicalRequest> a = CanonicalizeRequest(db, one);
  StatusOr<CanonicalRequest> b = CanonicalizeRequest(db, eight);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->options == b->options);
  EXPECT_EQ(a->options_hash, b->options_hash);
  EXPECT_EQ(a->options.num_threads, 0);
}

TEST(CanonicalizeRequestTest, CanonicalizationIsIdempotent) {
  // The service hands canonical options to the core, which
  // canonicalizes again; that is only safe if the second pass is a
  // no-op for every request shape.
  const TransactionDatabase db = MakeDiag(20);
  ColossalMinerOptions base;
  base.min_support_count = 3;
  ColossalMinerOptions shapes[] = {base, base, base, base, base};
  shapes[0].sigma = 0.35;
  shapes[1].top_k = 3;
  shapes[1].k = 50;
  shapes[2].constraints.include = {5, 1, 3, 1};
  shapes[2].constraints.exclude = {7};
  shapes[2].constraints.min_len = 1;
  shapes[3].constraints.max_len = 2;  // caps the pool size of 3
  shapes[3].constraints.min_len = 2;
  shapes[4].num_threads = 4;
  shapes[4].shard_parallelism = 2;
  for (const ColossalMinerOptions& shape : shapes) {
    StatusOr<CanonicalRequest> once = CanonicalizeRequest(db, shape);
    ASSERT_TRUE(once.ok()) << once.status().ToString();
    StatusOr<CanonicalRequest> twice = CanonicalizeRequest(db, once->options);
    ASSERT_TRUE(twice.ok()) << twice.status().ToString();
    EXPECT_TRUE(twice->options == once->options);
    EXPECT_EQ(twice->options_hash, once->options_hash);
  }
}

TEST(CanonicalizeRequestTest, ShardParallelismIsErased) {
  // Like num_threads, shard parallelism is a pure performance knob:
  // requests differing only in it must collapse to one cache key, so
  // a fan-out replay hits the sequential replay's entries.
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions sequential;
  sequential.min_support_count = 3;
  sequential.shard_parallelism = 1;
  ColossalMinerOptions wide = sequential;
  wide.shard_parallelism = 8;

  StatusOr<CanonicalRequest> a = CanonicalizeRequest(db, sequential);
  StatusOr<CanonicalRequest> b = CanonicalizeRequest(db, wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->options == b->options);
  EXPECT_EQ(a->options_hash, b->options_hash);
  EXPECT_EQ(a->options.shard_parallelism, 0);
}

TEST(CanonicalizeRequestTest, ResultAffectingKnobsChangeTheHash) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions base;
  base.min_support_count = 3;
  StatusOr<CanonicalRequest> reference = CanonicalizeRequest(db, base);
  ASSERT_TRUE(reference.ok());

  ColossalMinerOptions variants[] = {base, base, base, base};
  variants[0].tau = 0.25;
  variants[1].k = 7;
  variants[2].seed = 99;
  variants[3].min_support_count = 4;
  for (const ColossalMinerOptions& variant : variants) {
    StatusOr<CanonicalRequest> other = CanonicalizeRequest(db, variant);
    ASSERT_TRUE(other.ok());
    EXPECT_FALSE(other->options == reference->options);
    EXPECT_NE(other->options_hash, reference->options_hash);
  }
}

TEST(CanonicalizeRequestTest, RejectsSigmaAboveOne) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions options;
  options.sigma = 1.5;
  EXPECT_FALSE(CanonicalizeRequest(db, options).ok());
}

TEST(ParseRequestLineTest, ParsesFullGrammar) {
  StatusOr<MineRequest> request = ParseRequestLine(
      "--in data.fimi --format fimi --sigma 0.25 --tau 0.4 --k 50 "
      "--pool-size 2 --max-iterations 9 --attempts 3 --retain 4 --seed 11 "
      "--threads 2 --shard-parallelism 4");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->dataset_path, "data.fimi");
  EXPECT_EQ(request->format, "fimi");
  EXPECT_DOUBLE_EQ(request->options.sigma, 0.25);
  EXPECT_DOUBLE_EQ(request->options.tau, 0.4);
  EXPECT_EQ(request->options.k, 50);
  EXPECT_EQ(request->options.initial_pool_max_size, 2);
  EXPECT_EQ(request->options.max_iterations, 9);
  EXPECT_EQ(request->options.fusion_attempts_per_seed, 3);
  EXPECT_EQ(request->options.max_superpatterns_per_seed, 4);
  EXPECT_EQ(request->options.seed, 11u);
  EXPECT_EQ(request->options.num_threads, 2);
  EXPECT_EQ(request->options.shard_parallelism, 4);
}

TEST(ParseRequestLineTest, MinSupportVariantAndDefaults) {
  StatusOr<MineRequest> request =
      ParseRequestLine("--in d.snap --min-support 20");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->format, "auto");
  EXPECT_EQ(request->options.sigma, -1.0);
  EXPECT_EQ(request->options.min_support_count, 20);
}

TEST(ParseRequestLineTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseRequestLine("").ok());                      // no --in
  EXPECT_FALSE(ParseRequestLine("--min-support 5").ok());       // no --in
  EXPECT_FALSE(ParseRequestLine("--in d.fimi").ok());           // no support
  EXPECT_FALSE(ParseRequestLine("--in d.fimi --sigma 2").ok());
  // NaN passes every range check, so a non-finite value is refused as a
  // number before any check reads it.
  for (const char* value : {"--sigma nan", "--sigma -nan", "--tau nan",
                            "--tau inf"}) {
    StatusOr<MineRequest> request = ParseRequestLine(
        std::string("--in d.fimi --min-support 5 ") + value);
    ASSERT_FALSE(request.ok()) << value;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << value;
  }
  EXPECT_FALSE(
      ParseRequestLine("--in d.fimi --min-support 5 --bogus 1").ok());
  EXPECT_FALSE(
      ParseRequestLine("--in d.fimi --min-support 5 --k 0").ok());
  EXPECT_FALSE(ParseRequestLine("--in d.fimi --min-support 5 "
                                "--shard-parallelism -1")
                   .ok());
  EXPECT_FALSE(ParseRequestLine("--in d.fimi --min-support 5 "
                                "--shard-parallelism 99999")
                   .ok());
  // Both thread-count flags stop at kMaxThreads (512), the count
  // ResolveNumThreads clamps to. Parsing only: no thread starts.
  for (const char* flag : {"--threads", "--shard-parallelism"}) {
    const std::string line =
        std::string("--in d.fimi --min-support 5 ") + flag;
    EXPECT_TRUE(ParseRequestLine(line + " 512").ok()) << flag;
    EXPECT_FALSE(ParseRequestLine(line + " 513").ok()) << flag;
  }
  // Apriori builds every initial pool, so the request grammar has no
  // miner choice: either old spelling fails as an unknown flag.
  for (const char* miner : {"apriori", "eclat"}) {
    StatusOr<MineRequest> request = ParseRequestLine(
        std::string("--in d.fimi --min-support 5 --pool-miner ") + miner);
    ASSERT_FALSE(request.ok()) << miner;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument) << miner;
    EXPECT_EQ(request.status().message().rfind(
                  "unknown flag --pool-miner (known flags: --in ", 0),
              0u)
        << request.status().message();
  }
}

TEST(ParseRequestLineTest, UnknownFlagErrorListsKnownFlags) {
  StatusOr<MineRequest> request =
      ParseRequestLine("--in d.fimi --min-support 5 --tua 0.5");
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("--tua"), std::string::npos);
  EXPECT_NE(request.status().message().find("--tau"), std::string::npos);
}

// Golden-key regression: every pre-existing request line must hash to
// the SAME options_hash it produced before the typed-request refactor
// and the top-k/constraint extensions. The constants below were
// captured from the pre-refactor binary (PR 9); if one of them moves,
// cached results, in-flight dedup and cross-version replay all break.
// The mode-extension fields hash only when set, which is exactly what
// keeps these stable. The third and fourth lines are the one exception:
// they were re-pinned to the Apriori pool miner's hash when the miner
// choice left request identity.
TEST(GoldenCacheKeyTest, LegacyRequestLinesKeepTheirHistoricalHashes) {
  struct GoldenKey {
    const char* line;
    int64_t num_transactions;
    uint64_t hash;       // exact / unsharded key
    uint64_t fuse_hash;  // the same options under the kFuse salt
  };
  const GoldenKey golden[] = {
      {"--in data.fimi --min-support 12 --k 10 --pool-size 2", 100,
       0xb66730b5020a57d3ULL, 0xaace0c50d9579324ULL},
      {"--in data.fimi --min-support 12 --k 10 --pool-size 2", 4395,
       0xb66730b5020a57d3ULL, 0xaace0c50d9579324ULL},
      {"--in data.fimi --sigma 0.25 --tau 0.4 --k 50 --pool-size 2 "
       "--max-iterations 9 --attempts 3 --retain 4 --seed 11 --threads 2 "
       "--shard-parallelism 4",
       100, 0x18c2ac83764f60c5ULL, 0xd2497764657e5543ULL},
      {"--in data.fimi --sigma 0.25 --tau 0.4 --k 50 --pool-size 2 "
       "--max-iterations 9 --attempts 3 --retain 4 --seed 11 --threads 2 "
       "--shard-parallelism 4",
       4395, 0xc1d389a214ebdddeULL, 0x233d5a00d0075089ULL},
      {"--in d.snap --min-support 20", 100, 0x543d6b0fe3bebe84ULL,
       0x2e1125a92c5aa5e6ULL},
      {"--in shards/d.manifest --shards exact --min-support 12 --tau 0.5 "
       "--k 40 --pool-size 2",
       100, 0x7883f473ca183568ULL, 0x9d8501d16fafc7b8ULL},
      {"--in shards/d.manifest --shards fuse --sigma 0.1 --k 40 "
       "--pool-size 3 --seed 7",
       100, 0xd24e4ee7d509a965ULL, 0x4204951f28af7375ULL},
      {"--in shards/d.manifest --shards fuse --sigma 0.1 --k 40 "
       "--pool-size 3 --seed 7",
       4395, 0x0d98428fea2aaabbULL, 0x2ea1be0a6524e09eULL},
      {"--in x --min-support 1 --tau 1.0 --k 1 --pool-size 1 "
       "--max-iterations 1 --attempts 1 --retain 1 --seed 0",
       100, 0xc6242b35dea9b480ULL, 0x2b693162005b3e42ULL},
  };
  for (const GoldenKey& key : golden) {
    StatusOr<MineRequest> request = ParseRequestLine(key.line);
    ASSERT_TRUE(request.ok()) << key.line;
    StatusOr<CanonicalRequest> exact = CanonicalizeRequestForSize(
        key.num_transactions, request->options, /*fuse_mode=*/false);
    StatusOr<CanonicalRequest> fuse = CanonicalizeRequestForSize(
        key.num_transactions, request->options, /*fuse_mode=*/true);
    ASSERT_TRUE(exact.ok()) << key.line;
    ASSERT_TRUE(fuse.ok()) << key.line;
    EXPECT_EQ(exact->options_hash, key.hash)
        << key.line << " @" << key.num_transactions;
    EXPECT_EQ(fuse->options_hash, key.fuse_hash)
        << key.line << " @" << key.num_transactions;
  }
}

TEST(ParseRequestLineTest, ParsesModeExtensions) {
  StatusOr<MineRequest> request = ParseRequestLine(
      "--in data.fimi --min-support 5 --top-k 7 --include 3,1,4 "
      "--exclude 9 --min-len 2 --max-len 6");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->options.top_k, 7);
  EXPECT_EQ(request->options.constraints.include,
            (std::vector<ItemId>{3, 1, 4}));  // parse preserves order
  EXPECT_EQ(request->options.constraints.exclude, (std::vector<ItemId>{9}));
  EXPECT_EQ(request->options.constraints.min_len, 2);
  EXPECT_EQ(request->options.constraints.max_len, 6);
}

TEST(ParseRequestLineTest, RejectsBadModeExtensions) {
  const char* base = "--in d.fimi --min-support 5 ";
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--top-k -1").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--include ").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--include 1,,2").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--include a,2").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--include 1,").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--exclude -3").ok());
  EXPECT_FALSE(
      ParseRequestLine(std::string(base) + "--exclude 99999999999").ok());
  EXPECT_FALSE(ParseRequestLine(std::string(base) + "--min-len -2").ok());
}

TEST(CanonicalizeRequestTest, ConstrainedNeverSharesAKeyWithUnconstrained) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions plain;
  plain.min_support_count = 3;
  StatusOr<CanonicalRequest> reference = CanonicalizeRequest(db, plain);
  ASSERT_TRUE(reference.ok());

  ColossalMinerOptions variants[] = {plain, plain, plain, plain};
  variants[0].top_k = 100;  // == default k, still a distinct mode
  variants[1].constraints.include = {1, 2};
  variants[2].constraints.exclude = {4};
  variants[3].constraints.max_len = 3;
  for (const ColossalMinerOptions& variant : variants) {
    StatusOr<CanonicalRequest> other = CanonicalizeRequest(db, variant);
    ASSERT_TRUE(other.ok());
    EXPECT_FALSE(other->options == reference->options);
    EXPECT_NE(other->options_hash, reference->options_hash);
  }
  // Include={x} vs exclude={x} are different constraints, not a
  // concatenation ambiguity: list lengths are hashed.
  ColossalMinerOptions inc = plain;
  inc.constraints.include = {3};
  ColossalMinerOptions exc = plain;
  exc.constraints.exclude = {3};
  StatusOr<CanonicalRequest> a = CanonicalizeRequest(db, inc);
  StatusOr<CanonicalRequest> b = CanonicalizeRequest(db, exc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->options_hash, b->options_hash);
}

TEST(CanonicalizeRequestTest, EqualConstraintsInAnySpellingShareAKey) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions sorted;
  sorted.min_support_count = 3;
  sorted.constraints.include = {1, 2, 5};
  ColossalMinerOptions shuffled = sorted;
  shuffled.constraints.include = {5, 1, 2, 2, 1};  // order + duplicates
  StatusOr<CanonicalRequest> a = CanonicalizeRequest(db, sorted);
  StatusOr<CanonicalRequest> b = CanonicalizeRequest(db, shuffled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->options == b->options);
  EXPECT_EQ(a->options_hash, b->options_hash);

  // An exclude alongside an allowlist is a no-op and is erased, so the
  // two spellings share the allowlist-only key.
  ColossalMinerOptions with_exclude = sorted;
  with_exclude.constraints.exclude = {7};
  StatusOr<CanonicalRequest> c = CanonicalizeRequest(db, with_exclude);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->options_hash, a->options_hash);

  // min_len 1 is vacuous (patterns are non-empty) and collapses to 0 —
  // but here constraints become fully default, so the canonical form
  // must equal the unconstrained request, legacy hash included.
  ColossalMinerOptions vacuous;
  vacuous.min_support_count = 3;
  vacuous.constraints.min_len = 1;
  ColossalMinerOptions plain;
  plain.min_support_count = 3;
  StatusOr<CanonicalRequest> d = CanonicalizeRequest(db, vacuous);
  StatusOr<CanonicalRequest> e = CanonicalizeRequest(db, plain);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(d->options_hash, e->options_hash);
}

TEST(CanonicalizeRequestTest, TopKErasesTheRequestedK) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions a;
  a.min_support_count = 3;
  a.top_k = 5;
  a.k = 100;
  ColossalMinerOptions b = a;
  b.k = 7;  // can't affect a top-k answer
  StatusOr<CanonicalRequest> ca = CanonicalizeRequest(db, a);
  StatusOr<CanonicalRequest> cb = CanonicalizeRequest(db, b);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_TRUE(ca->options == cb->options);
  EXPECT_EQ(ca->options_hash, cb->options_hash);
  EXPECT_EQ(ca->options.k, 5);
}

TEST(CanonicalizeRequestTest, RejectsContradictoryConstraints) {
  const TransactionDatabase db = MakeDiag(10);
  ColossalMinerOptions overlap;
  overlap.min_support_count = 3;
  overlap.constraints.include = {1, 2};
  overlap.constraints.exclude = {2, 9};
  EXPECT_FALSE(CanonicalizeRequest(db, overlap).ok());

  ColossalMinerOptions inverted;
  inverted.min_support_count = 3;
  inverted.constraints.min_len = 5;
  inverted.constraints.max_len = 2;
  EXPECT_FALSE(CanonicalizeRequest(db, inverted).ok());
}

TEST(CanonicalizeRequestTest, FuseModeSaltsTheHash) {
  ColossalMinerOptions options;
  options.min_support_count = 3;
  StatusOr<CanonicalRequest> exact =
      CanonicalizeRequestForSize(10, options, /*fuse_mode=*/false);
  StatusOr<CanonicalRequest> fuse =
      CanonicalizeRequestForSize(10, options, /*fuse_mode=*/true);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(fuse.ok());
  EXPECT_TRUE(exact->options == fuse->options);  // same canonical form
  EXPECT_NE(exact->options_hash, fuse->options_hash);  // different keys
}

TEST(ResultCacheKeyTest, HashAndEquality) {
  const ResultCacheKey a{1, 2};
  const ResultCacheKey b{1, 2};
  const ResultCacheKey c{1, 3};
  const ResultCacheKey d{4, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
  ResultCacheKeyHash hasher;
  EXPECT_EQ(hasher(a), hasher(b));
  EXPECT_NE(hasher(a), hasher(c));
}

}  // namespace
}  // namespace colossal

#include <gtest/gtest.h>

#include <string>

#include "src/store/conflict.h"
#include "src/store/object_store.h"
#include "src/tclite/value.h"
#include "src/util/rng.h"

namespace rover {
namespace {

// --- resolvers ---

TEST(ConflictTest, LastWriterWins) {
  auto merged = LastWriterWinsResolve("old", "server", "client");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "client");
}

TEST(ConflictTest, SetMergeUnionsAdditions) {
  // Ancestor {a b}; server added c; client added d.
  auto merged = SetMergeResolve("a b", "a b c", "a b d");
  ASSERT_TRUE(merged.ok());
  auto elems = TclListSplit(*merged);
  ASSERT_TRUE(elems.ok());
  EXPECT_EQ(*elems, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(ConflictTest, SetMergeHonoursClientRemovals) {
  // Client removed b; server added c.
  auto merged = SetMergeResolve("a b", "a b c", "a");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "a c");
}

TEST(ConflictTest, SetMergeBothSidesRemoveAndAdd) {
  // Server removed a & added x; client removed b & added y.
  auto merged = SetMergeResolve("a b", "b x", "a y");
  ASSERT_TRUE(merged.ok());
  auto elems = TclListSplit(*merged);
  std::set<std::string> set(elems->begin(), elems->end());
  EXPECT_EQ(set, (std::set<std::string>{"x", "y"}));
}

TEST(ConflictTest, SetMergeRejectsNonList) {
  EXPECT_FALSE(SetMergeResolve("{unbalanced", "a", "b").ok());
}

TEST(ConflictTest, CalendarMergeNonOverlapping) {
  // Server booked 10am, client booked 11am.
  auto merged =
      CalendarMergeResolve("", "10am {staff mtg}", "11am {dentist}");
  ASSERT_TRUE(merged.ok());
  auto elems = TclListSplit(*merged);
  ASSERT_EQ(elems->size(), 4u);
  EXPECT_EQ((*elems)[0], "10am");
  EXPECT_EQ((*elems)[2], "11am");
}

TEST(ConflictTest, CalendarMergeClientDeletion) {
  // Ancestor has 9am+10am; client deleted 9am; server untouched.
  auto merged = CalendarMergeResolve("9am a 10am b", "9am a 10am b", "10am b");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "10am b");
}

TEST(ConflictTest, CalendarMergeSameSlotConflicts) {
  auto merged = CalendarMergeResolve("", "10am {staff mtg}", "10am {dentist}");
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kConflict);
  EXPECT_NE(merged.status().message().find("10am"), std::string::npos);
}

TEST(ConflictTest, CalendarMergeSameSlotSameValueOk) {
  auto merged = CalendarMergeResolve("", "10am mtg", "10am mtg");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "10am mtg");
}

TEST(ConflictTest, TextMergeDisjointEdits) {
  const std::string ancestor = "alpha\nbravo\ncharlie\ndelta\n";
  const std::string committed = "alpha\nBRAVO\ncharlie\ndelta\n";   // server edit
  const std::string proposed = "alpha\nbravo\ncharlie\nDELTA\n";    // client edit
  auto merged = TextMergeResolve(ancestor, committed, proposed);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(*merged, "alpha\nBRAVO\ncharlie\nDELTA\n");
}

TEST(ConflictTest, TextMergeAppendsFromBothSides) {
  const std::string ancestor = "line1\n";
  auto merged = TextMergeResolve(ancestor, "line0\nline1\n", "line1\nline2\n");
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(*merged, "line0\nline1\nline2\n");
}

TEST(ConflictTest, TextMergeIdenticalInsertionsCollapse) {
  const std::string ancestor = "a\nz\n";
  auto merged = TextMergeResolve(ancestor, "a\nm\nz\n", "a\nm\nz\n");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "a\nm\nz\n");
}

TEST(ConflictTest, TextMergeOverlappingEditsConflict) {
  const std::string ancestor = "a\nmiddle\nz\n";
  auto merged = TextMergeResolve(ancestor, "a\nSERVER\nz\n", "a\nCLIENT\nz\n");
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kConflict);
}

TEST(ConflictTest, TextMergeOneSideUnchanged) {
  const std::string ancestor = "a\nb\n";
  auto merged = TextMergeResolve(ancestor, ancestor, "a\nb\nc\n");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "a\nb\nc\n");
}

TEST(ConflictTest, RegistryRoutesByType) {
  ConflictResolverRegistry registry;
  EXPECT_TRUE(registry.Has("lww"));
  EXPECT_TRUE(registry.Has("set"));
  EXPECT_TRUE(registry.Has("calendar"));
  EXPECT_TRUE(registry.Has("text"));
  EXPECT_FALSE(registry.Has("custom"));

  auto merged = registry.Resolve("lww", "a", "b", "c");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, "c");

  // Unknown type -> unresolvable conflict.
  EXPECT_EQ(registry.Resolve("custom", "a", "b", "c").status().code(),
            StatusCode::kConflict);

  // Custom registration.
  registry.Register("custom", [](const std::string&, const std::string& committed,
                                 const std::string& proposed) -> Result<std::string> {
    return committed + "+" + proposed;
  });
  EXPECT_EQ(*registry.Resolve("custom", "a", "b", "c"), "b+c");
}

// --- object store ---

RdoDescriptor Desc(const std::string& name, const std::string& type,
                   const std::string& data) {
  RdoDescriptor d;
  d.name = name;
  d.type = type;
  d.data = data;
  d.code = "proc noop {} { return 0 }";
  return d;
}

TEST(ObjectStoreTest, CreateGetVersion) {
  ObjectStore store;
  ASSERT_TRUE(store.Create(Desc("x", "lww", "v0")).ok());
  EXPECT_TRUE(store.Exists("x"));
  EXPECT_EQ(*store.VersionOf("x"), 1u);
  EXPECT_EQ(store.Get("x")->data, "v0");
  EXPECT_EQ(store.Create(Desc("x", "lww", "again")).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.Get("missing").status().code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, PutBumpsVersion) {
  ObjectStore store;
  ASSERT_TRUE(store.Create(Desc("x", "lww", "v0")).ok());
  EXPECT_EQ(*store.Put(Desc("x", "lww", "v1")), 2u);
  EXPECT_EQ(*store.Put(Desc("x", "lww", "v2")), 3u);
  EXPECT_EQ(store.Get("x")->data, "v2");
}

TEST(ObjectStoreTest, FastPathExport) {
  ObjectStore store;
  ConflictResolverRegistry resolvers;
  ASSERT_TRUE(store.Create(Desc("x", "lww", "v0")).ok());
  auto outcome = store.ApplyExport(Desc("x", "lww", "client"), 1, resolvers);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->new_version, 2u);
  EXPECT_FALSE(outcome->was_conflict);
  EXPECT_EQ(store.stats().fast_path_commits, 1u);
}

TEST(ObjectStoreTest, ConflictResolvedByType) {
  ObjectStore store;
  ConflictResolverRegistry resolvers;
  ASSERT_TRUE(store.Create(Desc("roster", "set", "a b")).ok());
  // Another client committed version 2 (added c).
  ASSERT_TRUE(store.ApplyExport(Desc("roster", "set", "a b c"), 1, resolvers).ok());
  // Our client diverged from version 1 (added d).
  auto outcome = store.ApplyExport(Desc("roster", "set", "a b d"), 1, resolvers);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->was_conflict);
  EXPECT_EQ(outcome->new_version, 3u);
  auto elems = TclListSplit(store.Get("roster")->data);
  EXPECT_EQ(*elems, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(store.stats().resolved_conflicts, 1u);
}

TEST(ObjectStoreTest, UnresolvableConflictReported) {
  ObjectStore store;
  ConflictResolverRegistry resolvers;
  ASSERT_TRUE(store.Create(Desc("cal", "calendar", "")).ok());
  ASSERT_TRUE(store.ApplyExport(Desc("cal", "calendar", "10am staff"), 1, resolvers).ok());
  auto outcome = store.ApplyExport(Desc("cal", "calendar", "10am dentist"), 1, resolvers);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kConflict);
  // Committed state unchanged.
  EXPECT_EQ(store.Get("cal")->data, "10am staff");
  EXPECT_EQ(store.stats().unresolved_conflicts, 1u);
}

TEST(ObjectStoreTest, StaleBaseVersionRejected) {
  ObjectStore store;
  ConflictResolverRegistry resolvers;
  ASSERT_TRUE(store.Create(Desc("x", "lww", "v0")).ok());
  auto outcome = store.ApplyExport(Desc("x", "lww", "new"), 99, resolvers);
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObjectStoreTest, ListWithPrefix) {
  ObjectStore store;
  ASSERT_TRUE(store.Create(Desc("mail/inbox/1", "lww", "")).ok());
  ASSERT_TRUE(store.Create(Desc("mail/inbox/2", "lww", "")).ok());
  ASSERT_TRUE(store.Create(Desc("cal/2026", "lww", "")).ok());
  EXPECT_EQ(store.List("mail/").size(), 2u);
  EXPECT_EQ(store.List("cal/").size(), 1u);
  EXPECT_EQ(store.List().size(), 3u);
  EXPECT_EQ(store.List("nope/").size(), 0u);
}

TEST(ObjectStoreTest, RemoveObject) {
  ObjectStore store;
  ASSERT_TRUE(store.Create(Desc("x", "lww", "")).ok());
  ASSERT_TRUE(store.Remove("x").ok());
  EXPECT_FALSE(store.Exists("x"));
  EXPECT_EQ(store.Remove("x").code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, HistoryLimitFallsBackToEmptyAncestor) {
  ObjectStore store(/*history_limit=*/2);
  ConflictResolverRegistry resolvers;
  ASSERT_TRUE(store.Create(Desc("s", "set", "a")).ok());
  // Burn through history so version-1 ancestor is gone.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Put(Desc("s", "set", "a b")).ok());
  }
  // Export based on long-gone version 1: with an empty ancestor, the set
  // resolver treats everything in the proposal as additions.
  auto outcome = store.ApplyExport(Desc("s", "set", "a c"), 1, resolvers);
  ASSERT_TRUE(outcome.ok());
  auto elems = TclListSplit(store.Get("s")->data);
  std::set<std::string> set(elems->begin(), elems->end());
  EXPECT_EQ(set, (std::set<std::string>{"a", "b", "c"}));
}

// --- snapshot images ---

// The image wire format, rebuilt from the store's public read API only:
// per object (name order) the committed descriptor, then the journaled
// history oldest first.
Bytes ReferenceImage(const ObjectStore& store) {
  WireWriter writer;
  const std::vector<std::string> names = store.List();
  writer.WriteVarint(names.size());
  for (const std::string& name : names) {
    const RdoDescriptor committed = *store.Get(name);
    writer.WriteBytes(committed.Encode());
    std::vector<Bytes> history;
    for (uint64_t v = 1; v < committed.version; ++v) {
      auto old = store.GetVersion(name, v);
      if (old.ok()) {
        history.push_back(old->Encode());
      }
    }
    writer.WriteVarint(history.size());
    for (const Bytes& old : history) {
      writer.WriteBytes(old);
    }
  }
  return writer.TakeData();
}

// Sizes straddling the varint length boundaries (1, 2 and 3 bytes).
std::string RandomData(Rng* rng) {
  static const size_t kSizes[] = {0, 5, 127, 128, 300, 16383, 16384, 20000};
  const size_t n = kSizes[rng->NextBelow(sizeof(kSizes) / sizeof(kSizes[0]))];
  return std::string(n, static_cast<char>('a' + rng->NextBelow(26)));
}

TEST(ObjectImageTest, SnapshotEncodesLikeSerializeOverRandomStores) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ObjectStore store(/*history_limit=*/3);
    ConflictResolverRegistry resolvers;
    std::vector<std::pair<ObjectImage, Bytes>> taken;  // earlier snapshots
    bool exported_conflict = false;
    for (int step = 0; step < 60; ++step) {
      const std::string name = "obj/" + std::to_string(rng.NextBelow(5));
      RdoDescriptor d = Desc(name, "set", RandomData(&rng));
      if (rng.NextBool(0.3)) {
        d.metadata["owner"] = RandomData(&rng);
      }
      const uint64_t current = store.VersionOf(name).ok() ? *store.VersionOf(name) : 0;
      switch (rng.NextBelow(5)) {
        case 0:
          ASSERT_TRUE(store.Put(d).ok());
          break;
        case 1:
          if (current > 0) {
            (void)store.Remove(name);
          }
          break;
        case 2:
          d.version = current + 1 + rng.NextBelow(3);  // WAL replay may skip versions
          store.RestoreCommit(d);
          break;
        default:
          if (current > 1) {
            // Diverged from an older base: the set resolver merges.
            d.data = "x y";
            auto outcome = store.ApplyExport(d, current - 1, resolvers);
            ASSERT_TRUE(outcome.ok()) << outcome.status();
            exported_conflict |= outcome->was_conflict;
          } else if (current == 1) {
            ASSERT_TRUE(store.ApplyExport(d, current, resolvers).ok());
          }
          break;
      }
      const ObjectImage image = store.Snapshot();
      const Bytes serialized = store.Serialize();
      ASSERT_EQ(ObjectStore::EncodeImage(image), serialized);
      ASSERT_EQ(ObjectStore::ImageByteSize(image), serialized.size());
      ASSERT_EQ(serialized, ReferenceImage(store));
      if (step % 10 == 0) {
        taken.emplace_back(image, serialized);
      }
    }
    EXPECT_TRUE(exported_conflict);
    // Later mutations never reach into an earlier image.
    for (const auto& [image, serialized] : taken) {
      EXPECT_EQ(ObjectStore::EncodeImage(image), serialized);
    }
    // Adopting an image or loading its bytes reproduces the store.
    ObjectStore adopted(3);
    adopted.Adopt(store.Snapshot());
    EXPECT_EQ(adopted.Serialize(), store.Serialize());
    ObjectStore loaded(3);
    ASSERT_TRUE(loaded.Load(store.Serialize()).ok());
    EXPECT_EQ(loaded.Serialize(), store.Serialize());
  }
}

TEST(ObjectImageTest, EncodedSizeMatchesEncode) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    RdoDescriptor d = Desc(RandomData(&rng), RandomData(&rng), RandomData(&rng));
    d.version = rng.NextU64() >> rng.NextBelow(64);
    for (uint64_t m = rng.NextBelow(3); m > 0; --m) {
      d.metadata[RandomData(&rng)] = RandomData(&rng);
    }
    ASSERT_EQ(d.EncodedSize(), d.Encode().size());
  }
}

}  // namespace
}  // namespace rover

#include "src/store/object_store.h"

namespace rover {

namespace {

VersionRef MakeVersion(RdoDescriptor descriptor, uint64_t version) {
  descriptor.version = version;
  return std::make_shared<const StoredVersion>(std::move(descriptor));
}

Result<VersionRef> DecodeVersion(WireReader* reader) {
  ROVER_ASSIGN_OR_RETURN(Bytes encoded, reader->ReadBytes());
  ROVER_ASSIGN_OR_RETURN(RdoDescriptor descriptor, RdoDescriptor::Decode(encoded));
  return std::make_shared<const StoredVersion>(std::move(descriptor));
}

}  // namespace

Status ObjectStore::Create(const RdoDescriptor& descriptor) {
  if (objects_.count(descriptor.name) > 0) {
    return AlreadyExistsError("object \"" + descriptor.name + "\" already exists");
  }
  Entry entry;
  entry.committed = MakeVersion(descriptor, 1);
  auto inserted = objects_.emplace(descriptor.name, std::move(entry));
  ++stats_.creates;
  if (on_commit_) {
    on_commit_(inserted.first->second.committed->descriptor);
  }
  return Status::Ok();
}

Result<uint64_t> ObjectStore::Put(const RdoDescriptor& descriptor) {
  auto it = objects_.find(descriptor.name);
  if (it == objects_.end()) {
    ROVER_RETURN_IF_ERROR(Create(descriptor));
    return uint64_t{1};
  }
  Entry& entry = it->second;
  const uint64_t new_version = entry.committed->descriptor.version + 1;
  PushHistory(&entry);
  entry.committed = MakeVersion(descriptor, new_version);
  ++stats_.commits;
  if (on_commit_) {
    on_commit_(entry.committed->descriptor);
  }
  return new_version;
}

Result<RdoDescriptor> ObjectStore::Get(const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return NotFoundError("object \"" + name + "\" not found");
  }
  return it->second.committed->descriptor;
}

Result<RdoDescriptor> ObjectStore::GetVersion(const std::string& name,
                                              uint64_t version) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return NotFoundError("object \"" + name + "\" not found");
  }
  if (it->second.committed->descriptor.version == version) {
    return it->second.committed->descriptor;
  }
  for (const VersionRef& old : it->second.history) {
    if (old->descriptor.version == version) {
      return old->descriptor;
    }
  }
  return NotFoundError("version " + std::to_string(version) + " of \"" + name +
                       "\" no longer journaled");
}

bool ObjectStore::Exists(const std::string& name) const {
  return objects_.count(name) > 0;
}

Result<uint64_t> ObjectStore::VersionOf(const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end()) {
    return NotFoundError("object \"" + name + "\" not found");
  }
  return it->second.committed->descriptor.version;
}

Result<ExportOutcome> ObjectStore::ApplyExport(const RdoDescriptor& proposed,
                                               uint64_t base_version,
                                               const ConflictResolverRegistry& resolvers) {
  auto it = objects_.find(proposed.name);
  if (it == objects_.end()) {
    return NotFoundError("object \"" + proposed.name + "\" not found");
  }
  Entry& entry = it->second;
  const RdoDescriptor& current = entry.committed->descriptor;

  if (base_version > current.version) {
    return InvalidArgumentError("export base version " + std::to_string(base_version) +
                                " is newer than committed version " +
                                std::to_string(current.version));
  }

  ExportOutcome outcome;
  if (base_version == current.version) {
    // Fast path: nobody else committed since the client imported.
    PushHistory(&entry);
    entry.committed = MakeVersion(proposed, base_version + 1);
    ++stats_.commits;
    ++stats_.fast_path_commits;
    outcome.new_version = entry.committed->descriptor.version;
    outcome.committed = entry.committed->descriptor;
    if (on_commit_) {
      on_commit_(entry.committed->descriptor);
    }
    return outcome;
  }

  // Conflict: find the ancestor the client diverged from.
  std::string ancestor_data;
  bool found_ancestor = false;
  for (const VersionRef& old : entry.history) {
    if (old->descriptor.version == base_version) {
      ancestor_data = old->descriptor.data;
      found_ancestor = true;
      break;
    }
  }
  if (!found_ancestor) {
    // History truncated past the ancestor; treat the empty state as the
    // ancestor (conservative: resolvers see everything as both-modified).
    ancestor_data = "";
  }

  auto merged = resolvers.Resolve(current.type, ancestor_data, current.data, proposed.data);
  if (!merged.ok()) {
    ++stats_.unresolved_conflicts;
    return Status(StatusCode::kConflict,
                  "export of \"" + proposed.name + "\" conflicts: " +
                      std::string(merged.status().message()));
  }
  // Code updates ride along only on the fast path; on conflict the
  // committed code is kept (data is what resolvers understand).
  RdoDescriptor next = current;
  next.data = *std::move(merged);
  const uint64_t new_version = current.version + 1;
  PushHistory(&entry);
  entry.committed = MakeVersion(std::move(next), new_version);
  ++stats_.commits;
  ++stats_.resolved_conflicts;
  outcome.new_version = entry.committed->descriptor.version;
  outcome.was_conflict = true;
  outcome.committed = entry.committed->descriptor;
  if (on_commit_) {
    on_commit_(entry.committed->descriptor);
  }
  return outcome;
}

Status ObjectStore::Remove(const std::string& name) {
  if (objects_.erase(name) == 0) {
    return NotFoundError("object \"" + name + "\" not found");
  }
  if (on_remove_) {
    on_remove_(name);
  }
  return Status::Ok();
}

void ObjectStore::RestoreCommit(const RdoDescriptor& committed) {
  Entry& entry = objects_[committed.name];
  const uint64_t current = entry.committed ? entry.committed->descriptor.version : 0;
  if (current != 0 && current < committed.version) {
    PushHistory(&entry);
  }
  entry.committed = MakeVersion(committed, committed.version);
}

std::vector<std::string> ObjectStore::List(const std::string& prefix) const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : objects_) {
    if (name.rfind(prefix, 0) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

ObjectImage ObjectStore::Snapshot() const {
  ObjectImage image;
  image.objects.reserve(objects_.size());
  for (const auto& [name, entry] : objects_) {
    image.objects.push_back(
        {entry.committed, std::vector<VersionRef>(entry.history.begin(), entry.history.end())});
  }
  return image;
}

void ObjectStore::Adopt(const ObjectImage& image) {
  std::map<std::string, Entry> adopted;
  for (const ObjectImage::Object& object : image.objects) {
    adopted.emplace_hint(
        adopted.end(), object.committed->descriptor.name,
        Entry{object.committed,
              std::deque<VersionRef>(object.history.begin(), object.history.end())});
  }
  objects_ = std::move(adopted);
}

size_t ObjectStore::ImageByteSize(const ObjectImage& image) {
  size_t total = VarintSize(image.objects.size());
  for (const ObjectImage::Object& object : image.objects) {
    total += LengthPrefixedSize(object.committed->encoded_size) +
             VarintSize(object.history.size());
    for (const VersionRef& old : object.history) {
      total += LengthPrefixedSize(old->encoded_size);
    }
  }
  return total;
}

Bytes ObjectStore::EncodeImage(const ObjectImage& image) {
  WireWriter writer;
  writer.Reserve(ImageByteSize(image));
  writer.WriteVarint(image.objects.size());
  for (const ObjectImage::Object& object : image.objects) {
    writer.WriteBytes(object.committed->descriptor.Encode());
    writer.WriteVarint(object.history.size());
    for (const VersionRef& old : object.history) {
      writer.WriteBytes(old->descriptor.Encode());
    }
  }
  return writer.TakeData();
}

Status ObjectStore::Load(const Bytes& snapshot) {
  WireReader reader(snapshot);
  ROVER_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  ObjectImage image;
  for (uint64_t i = 0; i < count; ++i) {
    ObjectImage::Object object;
    ROVER_ASSIGN_OR_RETURN(object.committed, DecodeVersion(&reader));
    ROVER_ASSIGN_OR_RETURN(uint64_t history_count, reader.ReadVarint());
    for (uint64_t h = 0; h < history_count; ++h) {
      ROVER_ASSIGN_OR_RETURN(VersionRef old, DecodeVersion(&reader));
      object.history.push_back(std::move(old));
    }
    image.objects.push_back(std::move(object));
  }
  Adopt(image);
  return Status::Ok();
}

void ObjectStore::PushHistory(Entry* entry) {
  entry->history.push_back(entry->committed);
  while (entry->history.size() > history_limit_) {
    entry->history.pop_front();
  }
}

}  // namespace rover

#include "cache/cache_cli.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "common/cli.hpp"
#include "common/provenance.hpp"
#include "sim/runner/json.hpp"

namespace dyngossip {

namespace {

constexpr const char* kCacheUsage =
    "usage: dyngossip cache <info|verify|gc> --dir=PATH [--json] [--all]\n"
    "\n"
    "  info    summarize the cache (entries, bytes, staging files)\n"
    "  verify  validate every entry; exit 1 if any entry is corrupt\n"
    "  gc      remove staging files + corrupt entries (--all: every entry)\n";

int cmd_info(ResultCache& cache, bool json) {
  const CacheInfo info = cache.info();
  if (json) {
    JsonValue doc = JsonValue::object();
    doc.set("dir", JsonValue::str(cache.dir()));
    doc.set("schema",
            JsonValue::number(static_cast<double>(kCacheSchemaVersion)));
    doc.set("entries", JsonValue::number(static_cast<double>(info.entries)));
    doc.set("bytes", JsonValue::number(static_cast<double>(info.bytes)));
    doc.set("tmp_files",
            JsonValue::number(static_cast<double>(info.tmp_files)));
    std::cout << doc.dump(2) << "\n";
    return 0;
  }
  std::printf("cache %s (schema %u)\n", cache.dir().c_str(),
              kCacheSchemaVersion);
  std::printf("  entries:   %zu (%llu bytes)\n", info.entries,
              static_cast<unsigned long long>(info.bytes));
  std::printf("  staging:   %zu tmp file(s)\n", info.tmp_files);
  return 0;
}

int cmd_verify(const ResultCache& cache, bool json) {
  const CacheVerifyReport report = cache.verify();
  if (json) {
    JsonValue doc = JsonValue::object();
    doc.set("dir", JsonValue::str(cache.dir()));
    doc.set("valid", JsonValue::number(static_cast<double>(report.valid)));
    doc.set("foreign", JsonValue::number(static_cast<double>(report.foreign)));
    doc.set("tmp_files",
            JsonValue::number(static_cast<double>(report.tmp_files)));
    JsonValue corrupt = JsonValue::array();
    for (const std::string& c : report.corrupt) corrupt.push(JsonValue::str(c));
    doc.set("corrupt", std::move(corrupt));
    doc.set("clean", JsonValue::boolean(report.corrupt.empty()));
    std::cout << doc.dump(2) << "\n";
  } else {
    std::printf("cache %s: %zu valid, %zu foreign-schema, %zu staging, "
                "%zu corrupt\n",
                cache.dir().c_str(), report.valid, report.foreign,
                report.tmp_files, report.corrupt.size());
    for (const std::string& c : report.corrupt) {
      std::printf("  CORRUPT %s\n", c.c_str());
    }
  }
  return report.corrupt.empty() ? 0 : 1;
}

int cmd_gc(ResultCache& cache, bool all, bool json) {
  const CacheGcReport report = cache.gc(all);
  if (json) {
    JsonValue doc = JsonValue::object();
    doc.set("dir", JsonValue::str(cache.dir()));
    doc.set("removed_entries",
            JsonValue::number(static_cast<double>(report.removed_entries)));
    doc.set("removed_corrupt",
            JsonValue::number(static_cast<double>(report.removed_corrupt)));
    doc.set("removed_tmp",
            JsonValue::number(static_cast<double>(report.removed_tmp)));
    std::cout << doc.dump(2) << "\n";
  } else {
    std::printf("cache %s: removed %zu entr%s, %zu corrupt, %zu staging\n",
                cache.dir().c_str(), report.removed_entries,
                report.removed_entries == 1 ? "y" : "ies",
                report.removed_corrupt, report.removed_tmp);
  }
  return 0;
}

}  // namespace

int cache_main(int argc, const char* const* argv) {
  if (argc < 3) {
    std::fputs(kCacheUsage, stderr);
    return 2;
  }
  const std::string sub = argv[2];
  if (sub != "info" && sub != "verify" && sub != "gc") {
    std::fprintf(stderr, "unknown cache subcommand '%s'\n%s", sub.c_str(),
                 kCacheUsage);
    return 2;
  }
  std::vector<const char*> rest = {argv[0]};
  for (int i = 3; i < argc; ++i) rest.push_back(argv[i]);
  const CliArgs args(static_cast<int>(rest.size()), rest.data());
  args.allow_only({"dir", "json", "all"}, kCacheUsage);
  const std::string dir = args.get_string("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "cache %s requires --dir=PATH\n", sub.c_str());
    return 2;
  }
  const bool json = args.get_bool("json", false);
  const bool all = args.get_bool("all", false);
  if (all && sub != "gc") {
    std::fprintf(stderr, "--all only applies to `cache gc`\n");
    return 2;
  }
  try {
    ResultCache cache(dir);
    if (sub == "info") return cmd_info(cache, json);
    if (sub == "verify") return cmd_verify(cache, json);
    return cmd_gc(cache, all, json);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace dyngossip

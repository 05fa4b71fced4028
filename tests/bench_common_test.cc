// bench_common's host-shape helper: NUMA nodes counted from a sysfs-shaped
// fixture directory, with the one-node fallback when the tree is missing.
#include "bench_common.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace svc::bench {
namespace {

std::filesystem::path FreshDir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(HostShape, CountsNodeEntries) {
  const std::filesystem::path root = FreshDir("svc_host_shape_two_nodes");
  const std::filesystem::path nodes = root / "devices/system/node";
  std::filesystem::create_directories(nodes / "node0");
  std::filesystem::create_directories(nodes / "node1");
  // Entries the kernel puts beside the node directories do not count.
  std::filesystem::create_directories(nodes / "power");
  std::ofstream(nodes / "online") << "0-1\n";
  std::ofstream(nodes / "has_cpu") << "0-1\n";

  const HostShape shape = DetectHostShape(root.string());
  EXPECT_EQ(shape.nodes, 2);
  EXPECT_EQ(shape.cpus, util::ThreadPool::HardwareThreads());
  EXPECT_EQ(shape.summary,
            "2 nodes / " + std::to_string(shape.cpus) + " cpus");
}

TEST(HostShape, MissingNodeDirectoryIsOneNode) {
  const std::filesystem::path root = FreshDir("svc_host_shape_missing");
  const HostShape shape = DetectHostShape(root.string());
  EXPECT_EQ(shape.nodes, 1);
  EXPECT_GE(shape.cpus, 1);
}

}  // namespace
}  // namespace svc::bench

#include "os/system.h"

#include <gtest/gtest.h>

#include "util/strings.h"

namespace msa::os {
namespace {

PetaLinuxSystem make() { return PetaLinuxSystem{SystemConfig::test_small()}; }

TEST(System, SpawnAssignsSequentialPids) {
  auto sys = make();
  const Pid a = sys.spawn(0, {"sh"}, "pts/0");
  const Pid b = sys.spawn(0, {"sh"}, "pts/1");
  EXPECT_EQ(b, a + 1);
  EXPECT_TRUE(sys.alive(a));
  EXPECT_TRUE(sys.alive(b));
}

TEST(System, SetNextPidReproducesPaperPids) {
  auto sys = make();
  sys.set_next_pid(1391);
  const Pid victim = sys.spawn(0, {"./resnet50_pt"}, "pts/1");
  EXPECT_EQ(victim, 1391);
  // Reusing a dead pid range is fine; colliding with a live pid is not.
  EXPECT_THROW(sys.set_next_pid(1391), std::invalid_argument);
  EXPECT_NO_THROW(sys.set_next_pid(1300));
  EXPECT_THROW(sys.set_next_pid(0), std::invalid_argument);
  // spawn skips over the live pid 1391 when the counter reaches it.
  sys.set_next_pid(1391 - 1);
  EXPECT_EQ(sys.spawn(0, {"a"}, "pts/0"), 1390);
  EXPECT_EQ(sys.spawn(0, {"b"}, "pts/0"), 1392);
}

TEST(System, SpawnRejectsEmptyArgv) {
  auto sys = make();
  EXPECT_THROW(sys.spawn(0, {}, "pts/0"), std::invalid_argument);
}

TEST(System, SpawnCreatesTextAndHeapVmas) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"./app"}, "pts/0");
  const Process& p = sys.process(pid);
  EXPECT_NE(p.find_vma_named("[heap]"), nullptr);
  EXPECT_NE(p.find_vma_named("./app"), nullptr);
  EXPECT_EQ(p.heap_base(), sys.config().heap_va_base);
  EXPECT_EQ(p.brk(), p.heap_base());
}

TEST(System, SbrkBacksPagesWithFrames) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const std::uint64_t before = sys.allocator().used_frames();
  const mem::VirtAddr old = sys.sbrk(pid, 3 * mem::kPageSize + 100);
  EXPECT_EQ(old, sys.config().heap_va_base);
  EXPECT_EQ(sys.allocator().used_frames(), before + 4);  // rounded up
  EXPECT_EQ(sys.process(pid).brk(), old + 3 * mem::kPageSize + 100);
}

TEST(System, SbrkZeroIsNoop) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const auto used = sys.allocator().used_frames();
  (void)sys.sbrk(pid, 0);
  EXPECT_EQ(sys.allocator().used_frames(), used);
}

TEST(System, VirtReadWriteRoundTrip) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const mem::VirtAddr base = sys.sbrk(pid, 2 * mem::kPageSize);
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  sys.write_virt(pid, base + 100, data);  // crosses a page boundary
  std::vector<std::uint8_t> out(data.size());
  sys.read_virt(pid, base + 100, out);
  EXPECT_EQ(out, data);
}

TEST(System, Virt32Helpers) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const mem::VirtAddr base = sys.sbrk(pid, mem::kPageSize);
  sys.write_virt32(pid, base + 8, 0xF7F5F8FD);
  EXPECT_EQ(sys.read_virt32(pid, base + 8), 0xF7F5F8FDu);
}

TEST(System, UnmappedAccessSegfaults) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  std::uint8_t buf[4];
  EXPECT_THROW(sys.read_virt(pid, 0xdead000, buf), SegmentationFault);
  EXPECT_THROW(sys.write_virt(pid, sys.config().heap_va_base, buf),
               SegmentationFault);
}

TEST(System, TerminateRemovesProcessAndFreesFrames) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  (void)sys.sbrk(pid, 4 * mem::kPageSize);
  const auto used = sys.allocator().used_frames();
  sys.terminate(pid);
  EXPECT_FALSE(sys.alive(pid));
  EXPECT_EQ(sys.allocator().used_frames(), used - 4);
  EXPECT_THROW((void)sys.process(pid), std::invalid_argument);
  EXPECT_THROW(sys.terminate(pid), std::invalid_argument);
}

TEST(System, ResidueSurvivesTerminationByDefault) {
  // The headline vulnerability, at OS level.
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const mem::VirtAddr base = sys.sbrk(pid, mem::kPageSize);
  const std::string secret = "private-weights-0123456789";
  sys.write_virt(pid, base,
                 std::span{reinterpret_cast<const std::uint8_t*>(secret.data()),
                           secret.size()});
  const auto pa = sys.process(pid).page_table().translate(base);
  ASSERT_TRUE(pa.has_value());
  sys.terminate(pid);
  // Physical read after death: the secret is still there.
  std::string readback(secret.size(), '\0');
  for (std::size_t i = 0; i < secret.size(); ++i) {
    readback[i] = static_cast<char>(sys.dram().read8(*pa + i));
  }
  EXPECT_EQ(readback, secret);
}

TEST(System, ZeroOnFreeConfigScrubsResidue) {
  SystemConfig cfg = SystemConfig::test_small();
  cfg.sanitize = mem::SanitizePolicy::kZeroOnFree;
  PetaLinuxSystem sys{cfg};
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  const mem::VirtAddr base = sys.sbrk(pid, mem::kPageSize);
  sys.write_virt32(pid, base, 0xDEADBEEF);
  const auto pa = sys.process(pid).page_table().translate(base);
  sys.terminate(pid);
  EXPECT_EQ(sys.dram().read32(*pa), 0u);
}

TEST(System, TerminatedRecordCapturesGroundTruth) {
  auto sys = make();
  const Pid pid = sys.spawn(7, {"./resnet50_pt"}, "pts/1");
  (void)sys.sbrk(pid, 2 * mem::kPageSize);
  sys.terminate(pid);
  ASSERT_EQ(sys.terminated().size(), 1u);
  const TerminatedRecord& rec = sys.terminated().front();
  EXPECT_EQ(rec.pid, pid);
  EXPECT_EQ(rec.uid, 7u);
  EXPECT_EQ(rec.cmdline, "./resnet50_pt");
  EXPECT_EQ(rec.heap_frames.size(), 2u);
  EXPECT_EQ(rec.heap_end - rec.heap_base, 2 * mem::kPageSize);
}

TEST(System, PsEfListsAllProcessesWithHeader) {
  auto sys = make();
  sys.set_next_pid(1389);
  (void)sys.spawn(0, {"[kworker/3:0-events]"}, "");
  (void)sys.spawn(0, {"ps", "-ef"}, "pts/0");
  const std::string ps = sys.ps_ef();
  EXPECT_NE(ps.find("PID PPID C STIME TTY TIME CMD"), std::string::npos);
  EXPECT_NE(ps.find("1389"), std::string::npos);
  EXPECT_NE(ps.find("[kworker/3:0-events]"), std::string::npos);
  EXPECT_NE(ps.find("ps -ef"), std::string::npos);
}

TEST(System, ProcMapsWorldReadableByDefault) {
  auto sys = make();
  sys.add_user(1000, "victim");
  sys.add_user(1001, "attacker");
  const Pid pid = sys.spawn(1000, {"victim_app"}, "pts/1");
  // PetaLinux behaviour: another uid can read the victim's maps.
  EXPECT_NO_THROW((void)sys.proc_maps(1001, pid));
  EXPECT_NO_THROW((void)sys.proc_pagemap(1001, pid, 0, 1));
}

TEST(System, ProcOwnerOnlyPolicyDeniesCrossUser) {
  SystemConfig cfg = SystemConfig::test_small();
  cfg.proc_access = ProcAccessPolicy::kOwnerOrRoot;
  PetaLinuxSystem sys{cfg};
  sys.add_user(1000, "victim");
  sys.add_user(1001, "attacker");
  const Pid pid = sys.spawn(1000, {"victim_app"}, "pts/1");
  EXPECT_THROW((void)sys.proc_maps(1001, pid), PermissionError);
  EXPECT_THROW((void)sys.proc_pagemap(1001, pid, 0, 1), PermissionError);
  // Owner and root still allowed.
  EXPECT_NO_THROW((void)sys.proc_maps(1000, pid));
  EXPECT_NO_THROW((void)sys.proc_maps(0, pid));
}

TEST(System, HeapVaAslrRandomizesBase) {
  SystemConfig cfg = SystemConfig::test_small();
  cfg.heap_va_aslr = true;
  PetaLinuxSystem sys{cfg};
  const Pid a = sys.spawn(0, {"a"}, "pts/0");
  const Pid b = sys.spawn(0, {"b"}, "pts/0");
  EXPECT_NE(sys.process(a).heap_base(), sys.process(b).heap_base());
  EXPECT_EQ(sys.process(a).heap_base() % mem::kPageSize, 0u);
}

TEST(System, ClockAdvances) {
  auto sys = make();
  const auto t0 = sys.now_s();
  sys.advance_time(125);
  EXPECT_EQ(sys.now_s(), t0 + 125);
}

TEST(System, UserNames) {
  auto sys = make();
  sys.add_user(1000, "victim");
  EXPECT_EQ(sys.user_name(0), "root");
  EXPECT_EQ(sys.user_name(1000), "victim");
  EXPECT_EQ(sys.user_name(555), "555");  // unknown uid falls back to numeric
}

TEST(System, DevmemPathReadsRawDram) {
  auto sys = make();
  sys.devmem_write32(0x2000, 0xCAFEBABE);
  EXPECT_EQ(sys.devmem_read32(0x2000), 0xCAFEBABEu);
}

TEST(System, MmapRegionAppearsInMaps) {
  auto sys = make();
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  sys.mmap_region(pid, 0xffffb13b5000ULL, 0x1000, "/dev/dri/renderD128");
  EXPECT_NE(sys.proc_maps(0, pid).find("/dev/dri/renderD128"),
            std::string::npos);
}

TEST(System, Zcu102ConfigHasLargerBoard) {
  EXPECT_GT(SystemConfig::zcu102().board.size, SystemConfig::zcu104().board.size);
}

TEST(System, PoolExhaustionThrowsBadAlloc) {
  SystemConfig cfg = SystemConfig::test_small();
  cfg.pool_frames = 4;
  PetaLinuxSystem sys{cfg};
  const Pid pid = sys.spawn(0, {"app"}, "pts/0");
  EXPECT_THROW(sys.sbrk(pid, 16 * mem::kPageSize), std::bad_alloc);
}

/// One trial-shaped pass over a board: a victim grows a heap, fills it
/// with a recognisable pattern and terminates while a second process
/// stays alive. Returns the victim's former heap frames.
std::vector<dram::PhysAddr> run_trial(PetaLinuxSystem& sys) {
  sys.add_user(1000, "victim");
  const Pid shell = sys.spawn(0, {"sh"}, "pts/0");
  const Pid victim = sys.spawn(1000, {"./resnet50_pt", "img.ppm"}, "pts/1");
  const mem::VirtAddr base = sys.sbrk(victim, 5 * mem::kPageSize + 300);
  std::vector<std::uint8_t> data(3 * mem::kPageSize);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  sys.write_virt(victim, base + 100, data);
  (void)sys.sbrk(shell, 2 * mem::kPageSize);
  sys.advance_time(90);
  sys.terminate(victim);
  return sys.terminated().back().heap_frames;
}

TEST(System, ResetMatchesFreshBoot) {
  for (const mem::PlacementPolicy placement :
       {mem::PlacementPolicy::kSequentialLifo,
        mem::PlacementPolicy::kSequentialFifo,
        mem::PlacementPolicy::kRandomized}) {
    SCOPED_TRACE(static_cast<int>(placement));
    SystemConfig config = SystemConfig::test_small();
    config.placement = placement;
    PetaLinuxSystem reused{config};
    (void)run_trial(reused);
    (void)run_trial(reused);

    config.sanitize = mem::SanitizePolicy::kZeroOnAlloc;
    config.seed = 1234;
    reused.reset(config);
    PetaLinuxSystem fresh{config};

    const std::vector<dram::PhysAddr> heap = run_trial(reused);
    EXPECT_EQ(heap, run_trial(fresh));
    EXPECT_EQ(reused.pids(), fresh.pids());
    EXPECT_EQ(reused.ps_ef(), fresh.ps_ef());
    EXPECT_EQ(reused.allocator().used_frames(),
              fresh.allocator().used_frames());
    EXPECT_EQ(reused.allocator().dirty_free_frames(),
              fresh.allocator().dirty_free_frames());
    for (const dram::PhysAddr pa : heap) {
      for (std::uint64_t off = 0; off < mem::kPageSize; off += 4) {
        ASSERT_EQ(reused.devmem_read32(pa + off), fresh.devmem_read32(pa + off))
            << "pa " << pa + off;
      }
    }
  }
}

}  // namespace
}  // namespace msa::os

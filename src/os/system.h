// PetaLinux system simulator for a Zynq UltraScale+ board.
//
// Owns the board DRAM, the physical frame allocator, the process table and
// the simulated clock, and exposes:
//
//   * process lifecycle  — spawn / terminate (frames freed per the
//     configured sanitize policy; with the default kNone the heap residue
//     stays in DRAM — the paper's core vulnerability);
//   * memory syscalls    — sbrk (demand-backed by physical frames) and
//     virtual reads/writes that walk the process page table;
//   * /proc views        — ps -ef, /proc/<pid>/maps and
//     /proc/<pid>/pagemap text/binary renderings with a configurable
//     access-control policy (world-readable reproduces PetaLinux);
//   * physical access    — the devmem path used by the Xilinx debugger.
//
// The simulator is single-threaded and deterministic: given a config seed,
// every run produces identical layouts, which is what makes the paper's
// offline-profiling step work and what our tests assert.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram_model.h"
#include "mem/frame_allocator.h"
#include "mem/pagemap.h"
#include "os/process.h"

namespace msa::os {

/// Thrown when a /proc access is denied by policy.
struct PermissionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when a process touches an unmapped virtual address.
struct SegmentationFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Who may read another process's /proc/<pid>/{maps,pagemap}.
/// kWorldReadable is the PetaLinux behaviour the paper exploits; kOwnerOrRoot
/// is the hardened CPU-Linux-like policy used as a defense configuration.
enum class ProcAccessPolicy { kWorldReadable, kOwnerOrRoot };

struct SystemConfig {
  dram::DramConfig board = dram::DramConfig::zcu104();

  // Allocatable pool (CMA-style region used for process heaps). The
  // defaults put it at 0x6000_0000 so allocated heap pages land in the
  // same physical neighbourhood as the addresses the paper reports
  // (e.g. 0x61c6d730).
  mem::Pfn pool_first_pfn = 0x60000;
  std::uint64_t pool_frames = 128 * 1024;  ///< 512 MiB

  mem::SanitizePolicy sanitize = mem::SanitizePolicy::kNone;
  mem::PlacementPolicy placement = mem::PlacementPolicy::kSequentialLifo;
  ProcAccessPolicy proc_access = ProcAccessPolicy::kWorldReadable;

  /// Default ARM64 Linux heap neighbourhood (paper Fig. 7).
  mem::VirtAddr heap_va_base = 0xaaaaee775000ULL;
  /// Per-process heap-base randomization (VA ASLR defense; off on the
  /// paper's target).
  bool heap_va_aslr = false;

  std::uint64_t seed = 42;
  std::uint64_t boot_seconds_of_day = 3 * 3600 + 50 * 60;  ///< 03:50

  [[nodiscard]] static SystemConfig zcu104();
  [[nodiscard]] static SystemConfig zcu102();
  /// 16 MiB board, small pool — fast unit-test fixture.
  [[nodiscard]] static SystemConfig test_small();
};

/// Ground-truth record of a terminated process, kept by the simulator for
/// verification only (tests compare attack output against it); it is NOT
/// part of the attacker-visible surface.
struct TerminatedRecord {
  Pid pid = 0;
  Uid uid = 0;
  std::string cmdline;
  mem::VirtAddr heap_base = 0;
  mem::VirtAddr heap_end = 0;
  /// Physical address of each former heap page, in VA order.
  std::vector<dram::PhysAddr> heap_frames;
};

class PetaLinuxSystem {
 public:
  explicit PetaLinuxSystem(SystemConfig config = SystemConfig::zcu104());

  /// Reboots the board in place to exactly the state
  /// `PetaLinuxSystem{config}` would construct — DRAM content, frame
  /// tables, process table, users, clock, and PRNG all reinitialized —
  /// while reusing block and table storage. This is what makes victim
  /// boards poolable across trials: reset + reuse is indistinguishable
  /// from a fresh construction. With the pool shape unchanged it costs
  /// O(DRAM blocks and frames touched since the last reset).
  void reset(SystemConfig config);

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }
  [[nodiscard]] dram::DramModel& dram() noexcept { return dram_; }
  [[nodiscard]] const dram::DramModel& dram() const noexcept { return dram_; }
  [[nodiscard]] mem::PageFrameAllocator& allocator() noexcept { return alloc_; }
  [[nodiscard]] const mem::PageFrameAllocator& allocator() const noexcept {
    return alloc_;
  }

  // --- users ---------------------------------------------------------------
  void add_user(Uid uid, std::string name);
  [[nodiscard]] std::string user_name(Uid uid) const;

  // --- simulated clock -------------------------------------------------------
  void advance_time(std::uint64_t seconds) noexcept { now_s_ += seconds; }
  [[nodiscard]] std::uint64_t now_s() const noexcept { return now_s_; }

  // --- process lifecycle -----------------------------------------------------
  /// Forces the next spawn to use this pid (test/figure fixtures that want
  /// to reproduce the paper's pid 1391). Must be greater than any live pid.
  void set_next_pid(Pid pid);

  Pid spawn(Uid uid, std::vector<std::string> argv, std::string tty,
            Pid ppid = 1);
  [[nodiscard]] bool alive(Pid pid) const noexcept;
  [[nodiscard]] Process& process(Pid pid);
  [[nodiscard]] const Process& process(Pid pid) const;
  [[nodiscard]] std::vector<Pid> pids() const;

  /// Terminates the process: unmaps every page, frees the frames (the
  /// allocator applies the configured sanitize policy — kNone leaves the
  /// residue), erases the process, and appends a TerminatedRecord.
  void terminate(Pid pid);

  [[nodiscard]] const std::vector<TerminatedRecord>& terminated() const noexcept {
    return terminated_;
  }

  // --- memory syscalls ---------------------------------------------------------
  /// Grows the heap by `delta` bytes (rounded up to whole pages for frame
  /// backing) and returns the old brk, i.e. the start of the new region.
  /// Throws std::bad_alloc if the physical pool is exhausted.
  mem::VirtAddr sbrk(Pid pid, std::uint64_t delta);

  /// Registers a device/file VMA without physical backing in the pool
  /// (e.g. the /dev/dri/renderD128 mapping visible in the paper's Fig. 7).
  void mmap_region(Pid pid, mem::VirtAddr start, std::uint64_t len,
                   std::string name, bool shared = true);

  void write_virt(Pid pid, mem::VirtAddr va, std::span<const std::uint8_t> data);
  void read_virt(Pid pid, mem::VirtAddr va, std::span<std::uint8_t> out) const;
  void write_virt32(Pid pid, mem::VirtAddr va, std::uint32_t value);
  [[nodiscard]] std::uint32_t read_virt32(Pid pid, mem::VirtAddr va) const;

  // --- /proc views (requester-checked) --------------------------------------
  /// ps -ef output: header plus one line per live process. Visible to all
  /// users (as on real Linux).
  [[nodiscard]] std::string ps_ef() const;

  /// /proc/<pid>/maps text. Checked against the proc access policy.
  [[nodiscard]] std::string proc_maps(Uid requester, Pid pid) const;

  /// /proc/<pid>/pagemap window: `count` raw 64-bit entries starting at
  /// `first_vpn`. Checked against the proc access policy.
  [[nodiscard]] std::vector<std::uint64_t> proc_pagemap(Uid requester, Pid pid,
                                                        mem::Vpn first_vpn,
                                                        std::uint64_t count) const;

  // --- physical access (the /dev/mem // debugger path) ------------------------
  [[nodiscard]] std::uint32_t devmem_read32(dram::PhysAddr addr) const;
  void devmem_write32(dram::PhysAddr addr, std::uint32_t value);

 private:
  [[nodiscard]] Process& require(Pid pid);
  [[nodiscard]] const Process& require(Pid pid) const;
  void check_proc_access(Uid requester, const Process& target) const;
  /// Backs [start, start+len) of the process with freshly allocated frames.
  void back_range(Process& proc, mem::VirtAddr start, std::uint64_t len);

  SystemConfig config_;
  dram::DramModel dram_;
  mem::PageFrameAllocator alloc_;
  std::map<Pid, std::unique_ptr<Process>> procs_;
  std::map<Uid, std::string> users_;
  std::vector<TerminatedRecord> terminated_;
  Pid next_pid_ = 1000;
  std::uint64_t now_s_;
  util::Prng prng_;
};

}  // namespace msa::os

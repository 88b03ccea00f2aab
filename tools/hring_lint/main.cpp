// hring-lint: protocol lints for the guarded-action codebase.
//
//   hring-lint [options] <file-or-dir>...      lint explicit sources
//   hring-lint -p <build-dir> [options]        lint the compilation database
//
// Options:
//   --checks=a,b     comma-separated subset of checks (default: all);
//                    `--checks=none` disables every check
//   --filter=SUBSTR  with -p: only files whose path contains SUBSTR
//   --verify         fixture mode: match diagnostics against hring-expect
//                    comments instead of printing them
//   --summary        print each check's findings and the sites it examined
//   --list-checks    print the known checks and exit
//   --quiet          suppress diagnostics (exit status only)
//   --emit-ir=PATH   write the extracted ProtocolIR as JSON ("-" = stdout)
//   --json=PATH      write diagnostics as a JSON array ("-" = stdout)
//   --sarif=PATH     write diagnostics as SARIF 2.1.0 ("-" = stdout)
//
// Exit status: 0 clean / expectations matched, 1 diagnostics emitted /
// expectations missed, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "compdb.hpp"
#include "diagnostics.hpp"
#include "lexer.hpp"
#include "protocol_model.hpp"
#include "sarif.hpp"
#include "source_model.hpp"
#include "support/json.hpp"
#include "verify.hpp"

namespace {

namespace fs = std::filesystem;
using namespace hring::lint;

void collect_dir(const std::string& dir, std::vector<std::string>& files) {
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file(ec)) continue;
    const fs::path& p = it->path();
    if (p.extension() == ".cpp" || p.extension() == ".hpp" ||
        p.extension() == ".h" || p.extension() == ".cc") {
      files.push_back(p.lexically_normal().string());
    }
  }
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    if (!item.empty() && item != "none") out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Writes diagnostics as a JSON array of {file,line,col,check,message}
/// objects, for the CI per-check summary.
void write_diagnostics_json(const std::vector<Diagnostic>& diags,
                            std::ostream& out) {
  hring::support::JsonWriter w(out);
  w.begin_array();
  for (const Diagnostic& d : diags) {
    w.begin_object();
    w.key("file").value(d.file);
    w.key("line").value(static_cast<std::uint64_t>(d.line));
    w.key("col").value(static_cast<std::uint64_t>(d.col));
    w.key("check").value(d.check);
    w.key("message").value(d.message);
    w.end_object();
  }
  w.end_array();
}

/// Opens PATH for writing ("-" selects stdout). Returns the stream to use,
/// or nullptr on failure.
std::ostream* open_sink(const std::string& path, std::ofstream& storage) {
  if (path == "-") return &std::cout;
  storage.open(path);
  if (!storage) {
    std::cerr << "hring-lint: cannot write " << path << "\n";
    return nullptr;
  }
  return &storage;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string build_dir;
  std::string filter;
  std::vector<std::string> checks = all_check_names();
  std::string emit_ir_path;
  std::string json_path;
  std::string sarif_path;
  bool verify = false;
  bool summary = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-p" && i + 1 < argc) {
      build_dir = argv[++i];
    } else if (arg.rfind("--checks=", 0) == 0) {
      checks = split_csv(arg.substr(9));
      for (const std::string& c : checks) {
        bool known = false;
        for (const std::string& k : all_check_names()) known |= (k == c);
        if (!known) {
          std::cerr << "hring-lint: unknown check '" << c << "'\n";
          return 2;
        }
      }
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg.rfind("--emit-ir=", 0) == 0) {
      emit_ir_path = arg.substr(10);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-checks") {
      for (const std::string& c : all_check_names()) {
        std::cout << "hring-" << c << "\n";
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "hring-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }

  std::vector<std::string> paths;
  if (!build_dir.empty()) {
    std::string error;
    if (!compdb_sources(build_dir, filter, paths, error)) {
      std::cerr << "hring-lint: " << error << "\n";
      return 2;
    }
  }
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      collect_dir(input, paths);
    } else {
      paths.push_back(input);
    }
  }
  if (paths.empty()) {
    std::cerr << "hring-lint: no input files (pass sources or -p "
                 "<build-dir>; see --help in the file header)\n";
    return 2;
  }
  // Deterministic parse order regardless of filesystem iteration order:
  // the emitted IR and diagnostics must not depend on it.
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  // Lex and parse everything first: the model is cross-file, so e.g. an
  // out-of-line decode() in a .cpp attaches to its class from the .hpp.
  std::vector<std::unique_ptr<SourceFile>> files;
  Model model;
  for (const std::string& path : paths) {
    auto file = std::make_unique<SourceFile>();
    if (!lex_file(path, *file)) {
      std::cerr << "hring-lint: cannot read " << path << "\n";
      return 2;
    }
    parse_file(*file, model);
    files.push_back(std::move(file));
  }
  std::vector<Diagnostic> diags;
  const auto examined = run_checks(model, checks, diags);

  if (!emit_ir_path.empty()) {
    const ProtocolIR ir = extract_protocol_ir(model, nullptr);
    std::ofstream storage;
    std::ostream* out = open_sink(emit_ir_path, storage);
    if (out == nullptr) return 2;
    write_protocol_ir(ir, *out);
    *out << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream storage;
    std::ostream* out = open_sink(json_path, storage);
    if (out == nullptr) return 2;
    write_diagnostics_json(diags, *out);
    *out << "\n";
  }
  if (!sarif_path.empty()) {
    std::ofstream storage;
    std::ostream* out = open_sink(sarif_path, storage);
    if (out == nullptr) return 2;
    write_sarif(diags, checks, *out);
    *out << "\n";
  }

  if (verify) {
    std::vector<Expectation> expectations;
    for (const auto& file : files) collect_expectations(*file, expectations);
    std::vector<std::string> failures;
    if (verify_expectations(diags, expectations, failures)) {
      std::cout << "hring-lint: verified " << expectations.size()
                << " expectation(s) across " << paths.size() << " file(s)\n";
      return 0;
    }
    for (const std::string& f : failures) std::cerr << f << "\n";
    std::cerr << "hring-lint: verification failed (" << failures.size()
              << " mismatch(es))\n";
    return 1;
  }

  if (!quiet) {
    for (const Diagnostic& d : diags) std::cout << d.render() << "\n";
  }
  if (summary) {
    const auto counts = count_by_check(diags);
    std::cout << "hring-lint summary (" << paths.size()
              << " files; findings/sites examined):";
    for (const std::string& c : checks) {
      const auto it = counts.find(c);
      std::cout << " " << c << "="
                << (it == counts.end() ? std::size_t{0} : it->second) << "/"
                << examined.at(c);
    }
    std::cout << "\n";
  }
  return diags.empty() ? 0 : 1;
}

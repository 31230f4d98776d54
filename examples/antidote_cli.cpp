//===- examples/antidote_cli.cpp - Command-line verifier ----------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
// A standalone command-line front end to the verifier, for certifying CSV
// datasets without writing any C++:
//
//   antidote_cli --train train.csv --query "5.1,3.5,1.4,0.2" --n 8
//                --depth 2 --domain disjuncts
//   antidote_cli --dataset mammography --row 3 --n 16 --threat flip
//   antidote_cli --dataset iris --all --n 4 --jobs 8
//   antidote_cli --train train.csv --test test.csv --all --n 2
//   antidote_cli --dataset iris --serve --n 4 --cache-bytes 1048576
//   antidote_cli --dataset iris --listen 0 --n 4 --cache-dir store
//                --replicate-from primary:9000
//   antidote_cli --sweep --dataset mammography --jobs 4
//   antidote_cli --sweep --train train.csv --test test.csv
//
// --threat picks the poisoning model (removal | flip); every mode —
// single query, --all, --serve, --sweep, caching, the disk store —
// works under either, through the same Verifier stack.
//
// --serve turns the process into a warm certificate server: queries
// stream in on stdin (one "v1,v2,..." feature vector per line), are
// answered by one long-lived Verifier on --jobs workers, and repeated
// queries short-circuit to the fingerprint-keyed certificate store.
//
// --sweep runs the paper's §6.1 experimental protocol (depths 1 and 2,
// every budget n up to the training-set size, a 2 s per-instance
// timeout, box and disjuncts) over the test split and prints the
// fraction-verified curve — one row of the paper's Figure 6.
//
// The store is composed here, at the wiring layer, once for every mode
// (`openStore`): a RAM LRU (CertCache) in front of an optional
// persistent DiskCertStore behind one TieredStore facade — everything
// downstream (Verifier, sweep, CertServer, NetServer, Replicator) holds
// only the abstract CertificateStore. --replicate-from turns a serving
// process into a replica that pulls the source's segment records into
// its own --cache-dir.
//
// Exit code 0 = robust proven (with --all/--serve: every query proven;
// --sweep and --help always exit 0), 1 = not proven, 2 = usage/load
// error.
//
//===----------------------------------------------------------------------===//

#include "antidote/Report.h"
#include "antidote/Sweep.h"
#include "data/Csv.h"
#include "data/Registry.h"
#include "serving/CertCache.h"
#include "serving/CertServer.h"
#include "serving/DiskCertStore.h"
#include "serving/NetServer.h"
#include "serving/Replicator.h"
#include "serving/ServingOptions.h"
#include "serving/TieredStore.h"
#include "support/Parse.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

using namespace antidote;

namespace {

/// Parsed command line: the shared serving knobs plus this front end's
/// own mode and verification flags.
struct CliOptions {
  ServingOptions Serving;
  std::string TrainCsv;
  std::string TestCsv; ///< Test split for --train, read in its schema.
  std::string DatasetName;
  std::string QueryValues; ///< Comma-separated feature vector.
  int TestRow = -1;        ///< Row of the test split to query.
  bool AllRows = false;    ///< Verify every row of the test split.
  bool Serve = false;      ///< Serve stdin queries through a CertServer.
  bool Sweep = false;      ///< Run the §6.1 sweep protocol.
  bool Help = false;       ///< --help/-h: print usage, exit 0.
  std::string QueryKnob;   ///< A per-query knob seen (--sweep fixes them).
  uint32_t Budget = 1;
  unsigned Depth = 2;
  AbstractDomainKind Domain = AbstractDomainKind::Disjuncts;
  size_t DisjunctCap = 64;
  double TimeoutSeconds = 60.0;
};

void printUsage() {
  std::printf(
      "usage: antidote_cli (--train FILE.csv [--test FILE.csv] |"
      " --dataset NAME)\n"
      "                    (--query \"v1,v2,...\" | --row K | --all |"
      " --serve |\n"
      "                     --listen PORT | --sweep)\n"
      "                    [--n N] [--depth D] [--domain box|disjuncts|"
      "capped]\n"
      "                    [--cap K] [--timeout SECONDS] [serving "
      "knobs...]\n\n"
      "  --train    training set CSV (features..., integer label)\n"
      "  --test     test split CSV for --train, in the training set's\n"
      "             schema (what --row, --all and --sweep read)\n"
      "  --dataset  built-in benchmark:");
  for (const std::string &Name : benchmarkDatasetNames())
    std::printf(" %s", Name.c_str());
  std::printf(
      "\n"
      "  --query    feature vector of the input to certify\n"
      "  --row      use row K of the test split\n"
      "  --all      certify every row of the test split\n"
      "  --serve    warm certificate server: read one query per line\n"
      "             (\"v1,v2,...\") from stdin, answer each from one\n"
      "             long-lived Verifier, cache repeated queries\n"
      "  --listen   network certificate server: bind 127.0.0.1:PORT\n"
      "             (0 = kernel-assigned, printed on startup) and speak\n"
      "             the length-prefixed binary protocol (see\n"
      "             examples/net_client.cpp); SIGINT/SIGTERM shut down\n"
      "             cleanly and print the net:/cache:/disk: stats; also\n"
      "             answers replication polls, so replicas can\n"
      "             pull this process's store\n"
      "  --sweep    the paper's 6.1 protocol (depths 1-2, every n, box and\n"
      "             disjuncts, 2 s per instance): one fraction-verified\n"
      "             table per depth; the knobs below are refused\n"
      "\n"
      "verification knobs:\n"
      "  --n N            poisoning budget (at most the training-set "
      "size; default 1)\n"
      "  --depth D        decision-tree depth (default 2)\n"
      "  --domain D       abstract domain: box|disjuncts|capped "
      "(default disjuncts)\n"
      "  --cap K          disjunct cap, capped domain only (default "
      "64)\n"
      "  --timeout S      per-query wall-clock budget, seconds (0 = "
      "none; default 60)\n\n");
  ServingOptions::printHelp(stdout);
  std::printf(
      "\nreplication: --replicate-from needs --cache-dir (the disk "
      "store\nis the replication target) and --serve or --listen; "
      "replicated\ncertificates are byte-identical to the source's and "
      "pass the same\nchecksum/duplicate validation as local appends.\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  // The shared serving knobs first (env twins, then their flags);
  // whatever remains is this front end's own.
  if (!Options.Serving.parse(Argc, Argv))
    return false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--help" || Arg == "-h") {
      Options.Help = true;
      return true;
    }
    const char *Value = nullptr;
    if (Arg == "--all") {
      Options.AllRows = true;
      continue;
    }
    if (Arg == "--serve") {
      Options.Serve = true;
      continue;
    }
    if (Arg == "--sweep") {
      Options.Sweep = true;
      continue;
    }
    if (!(Value = Next())) {
      std::fprintf(stderr, "error: %s needs a value\n", Arg.c_str());
      return false;
    }
    // Every numeric flag parses checked: garbage must error out loudly,
    // not silently become 0 (bare atoi) or wrap through an unsigned cast.
    auto CountFlag = [&](uint64_t Max, auto &Out) {
      std::optional<uint64_t> Parsed = parseUnsignedArg(Value, Max);
      if (!Parsed) {
        std::fprintf(stderr,
                     "error: %s needs an unsigned integer <= %llu, got "
                     "'%s'\n",
                     Arg.c_str(), static_cast<unsigned long long>(Max),
                     Value);
        return false;
      }
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(*Parsed);
      return true;
    };
    if (Arg == "--train")
      Options.TrainCsv = Value;
    else if (Arg == "--test")
      Options.TestCsv = Value;
    else if (Arg == "--dataset")
      Options.DatasetName = Value;
    else if (Arg == "--query")
      Options.QueryValues = Value;
    else if (Arg == "--row") {
      if (!CountFlag(INT_MAX, Options.TestRow))
        return false;
    } else {
      // The per-query verification knobs, all fixed under --sweep.
      Options.QueryKnob = Arg;
      if (Arg == "--n") {
        if (!CountFlag(UINT32_MAX, Options.Budget))
          return false;
      } else if (Arg == "--depth") {
        if (!CountFlag(UINT_MAX, Options.Depth))
          return false;
      } else if (Arg == "--cap") {
        if (!CountFlag(SIZE_MAX, Options.DisjunctCap))
          return false;
      } else if (Arg == "--timeout") {
        std::optional<double> Parsed = parseDoubleArg(Value);
        if (!Parsed || *Parsed < 0.0) {
          std::fprintf(stderr,
                       "error: --timeout needs a finite number of "
                       "seconds >= 0, got '%s'\n",
                       Value);
          return false;
        }
        Options.TimeoutSeconds = *Parsed;
      } else if (Arg == "--domain") {
        if (std::strcmp(Value, "box") == 0)
          Options.Domain = AbstractDomainKind::Box;
        else if (std::strcmp(Value, "disjuncts") == 0)
          Options.Domain = AbstractDomainKind::Disjuncts;
        else if (std::strcmp(Value, "capped") == 0)
          Options.Domain = AbstractDomainKind::DisjunctsCapped;
        else {
          std::fprintf(stderr, "error: unknown domain '%s'\n", Value);
          return false;
        }
      } else {
        std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
        return false;
      }
    }
  }
  const ServingOptions &Serving = Options.Serving;
  bool HaveData = !Options.TrainCsv.empty() ^ !Options.DatasetName.empty();
  // --test pairs with --train only: it is read in the training schema.
  HaveData &= Options.TestCsv.empty() || !Options.TrainCsv.empty();
  int Modes = !Options.QueryValues.empty() + (Options.TestRow >= 0) +
              Options.AllRows + Options.Serve + Serving.Listen + Options.Sweep;
  if (!HaveData || Modes != 1) {
    std::fprintf(stderr,
                 "error: need one data source (--train [--test] or "
                 "--dataset) and exactly one mode (--query, --row, --all, "
                 "--serve, --listen or --sweep)\n");
    return false;
  }
  bool HaveSplit = !Options.DatasetName.empty() || !Options.TestCsv.empty();
  if ((Options.TestRow >= 0 || Options.AllRows || Options.Sweep) &&
      !HaveSplit) {
    std::fprintf(stderr, "error: --row, --all and --sweep need a test "
                         "split (--dataset, or --train with --test)\n");
    return false;
  }
  if (Options.Sweep && !Options.QueryKnob.empty()) {
    std::fprintf(stderr,
                 "error: %s is fixed by the --sweep protocol (depths 1-2, "
                 "every n, box and disjuncts, 2 s per instance)\n",
                 Options.QueryKnob.c_str());
    return false;
  }
  if (Serving.Replicate &&
      (Serving.CacheDir.empty() || (!Options.Serve && !Serving.Listen))) {
    std::fprintf(stderr,
                 "error: --replicate-from needs --cache-dir (the disk "
                 "store is the replication target) and --serve or "
                 "--listen (a one-shot or batch process has no time to "
                 "replicate)\n");
    return false;
  }
  if (!threatModel(Serving.Threat).supportsDomain(Options.Domain)) {
    std::fprintf(stderr,
                 "error: the %s threat model supports only the disjuncts "
                 "domain (its class-probability transformer is unsound "
                 "under box joins)\n",
                 threatModelName(Serving.Threat));
    return false;
  }
  return true;
}

/// Loads what every mode reads, as one `BenchmarkDataset`: --dataset
/// from the registry, or --train (and --test, read in the training
/// set's schema) from CSV, where every test row is a row --sweep
/// verifies. Null after printing the error.
std::optional<BenchmarkDataset> loadData(const CliOptions &Options) {
  if (!Options.DatasetName.empty()) {
    const std::vector<std::string> &Names = benchmarkDatasetNames();
    if (std::find(Names.begin(), Names.end(), Options.DatasetName) !=
        Names.end())
      return loadBenchmarkDataset(Options.DatasetName, benchScaleFromEnv());
    std::fprintf(stderr, "error: unknown dataset '%s'\n",
                 Options.DatasetName.c_str());
    return std::nullopt;
  }
  BenchmarkDataset Data;
  Data.Name = Options.TrainCsv;
  CsvLoadResult Train = loadCsvDataset(Options.TrainCsv);
  if (!Train.succeeded()) {
    std::fprintf(stderr, "error: %s\n", Train.Error.c_str());
    return std::nullopt;
  }
  Data.Split.Train = std::move(*Train.Data);
  if (!Options.TestCsv.empty()) {
    CsvLoadResult Test =
        loadCsvDataset(Options.TestCsv, Data.Split.Train.schema());
    if (!Test.succeeded()) {
      std::fprintf(stderr, "error: %s\n", Test.Error.c_str());
      return std::nullopt;
    }
    Data.Split.Test = std::move(*Test.Data);
    for (uint32_t Row = 0; Row < Data.Split.Test.numRows(); ++Row)
      Data.VerifyRows.push_back(Row);
  }
  return Data;
}

/// The composed certificate store: the tiers (kept for their stats
/// lines) and the one TieredStore facade every mode hands downstream —
/// null when no tier is on (every query verifies fresh).
struct StoreTiers {
  std::unique_ptr<CertCache> Cache;
  std::unique_ptr<DiskCertStore> Disk;
  std::unique_ptr<TieredStore> Tiered;
};

/// The one place the store is composed, for every mode: a RAM LRU in
/// front when \p WantCache, the persistent tier behind (--cache-dir /
/// ANTIDOTE_CACHE_DIR, with the retention budget). An unusable
/// directory is a usage error — it fails loudly now, not after hours of
/// verification: null after printing the error.
std::optional<StoreTiers> openStore(const ServingOptions &Serving,
                                    bool WantCache) {
  StoreTiers Store;
  if (!Serving.CacheDir.empty()) {
    DiskCertStoreOptions DiskOptions;
    DiskOptions.RetentionBytes = Serving.RetentionBytes;
    DiskCertStore::OpenResult Opened =
        DiskCertStore::open(Serving.CacheDir, DiskOptions);
    if (!Opened.ok()) {
      std::fprintf(stderr, "error: %s\n", Opened.Error.c_str());
      return std::nullopt;
    }
    Store.Disk = std::move(Opened.Store);
  }
  if (WantCache)
    Store.Cache = std::make_unique<CertCache>(Serving.CacheBytes);
  if (Store.Cache || Store.Disk)
    Store.Tiered =
        std::make_unique<TieredStore>(Store.Cache.get(), Store.Disk.get());
  return Store;
}

/// Every store tier's stats line comes from the one shared
/// `StoreStats::summary()` rendering — the CI smokes grep these.
void printStoreLines(const StoreTiers &Store) {
  if (Store.Cache)
    std::printf("cache: %s\n", Store.Cache->stats().summary().c_str());
  if (Store.Disk)
    std::printf("disk: %s\n", Store.Disk->stats().summary().c_str());
}

/// The per-query verification parameters every mode but --sweep
/// shares: the one-shot and --all modes verify with them directly,
/// --serve and --listen hand them to the CertServer.
VerifierConfig queryConfig(const CliOptions &Options) {
  VerifierConfig Config;
  Config.Depth = Options.Depth;
  Config.Domain = Options.Domain;
  Config.Threat = Options.Serving.Threat;
  Config.DisjunctCap = Options.DisjunctCap;
  Config.Limits.TimeoutSeconds = Options.TimeoutSeconds;
  return Config;
}

/// Parses "v1,v2,..." into floats; returns false on malformed input.
bool parseQuery(const std::string &Text, unsigned NumFeatures,
                std::vector<float> &Query) {
  const char *Cursor = Text.c_str();
  while (*Cursor) {
    char *End = nullptr;
    float V = std::strtof(Cursor, &End);
    if (End == Cursor)
      return false;
    Query.push_back(V);
    Cursor = End;
    if (*Cursor == ',')
      ++Cursor;
  }
  return Query.size() == NumFeatures;
}

/// --sweep: the paper's §6.1 protocol over the test split's verify
/// rows, one fraction-verified table per depth.
void runSweep(const BenchmarkDataset &Data, const ServingOptions &Serving,
              const StoreTiers &Store) {
  std::printf("=== Poisoning-robustness sweep: %s (threat %s) ===\n",
              Data.Name.c_str(), threatModelName(Serving.Threat));
  const Dataset &Train = Data.Split.Train;
  std::printf("train %u rows x %u features, verifying %zu test inputs "
              "on %u thread(s)\n",
              Train.numRows(), Train.numFeatures(), Data.VerifyRows.size(),
              resolveJobs(Serving.Jobs));
  if (Serving.Threat == ThreatModelKind::LabelFlip)
    std::printf("note: box-domain cells are skipped — the flip "
                "class-probability transformer is sound only under the "
                "disjuncts domain\n");
  std::printf("\n");

  SweepConfig Config;
  Config.Depths = {1, 2};
  Config.Threat = Serving.Threat;
  Config.InstanceLimits.TimeoutSeconds = 2.0;
  Config.MaxPoisoning = Train.numRows();
  Config.Jobs = Serving.Jobs;
  Config.Cache = Store.Tiered.get();
  SweepResult Result =
      runPoisoningSweep(Train, Data.Split.Test, Data.VerifyRows, Config);

  for (unsigned Depth : Config.Depths) {
    std::printf("--- depth %u ---\n", Depth);
    TableWriter Table({"n", "box verified", "disjuncts verified",
                       "either (%)", "avg time (disj)"});
    for (uint32_t N : Result.attemptedPoisonings(Depth)) {
      // A domain with no cell at N (box under flips) reads as zeros.
      SweepCell Box, Disj;
      for (const SweepSeries &S : Result.Series)
        for (const SweepCell &Cell : S.Cells)
          if (S.Depth == Depth && Cell.Poisoning == N)
            (S.DomainName == "box" ? Box : Disj) = Cell;
      Table.addRow({std::to_string(N), std::to_string(Box.Verified),
                    std::to_string(Disj.Verified),
                    formatPercent(Result.fractionVerified(Depth, N)),
                    formatSeconds(Disj.avgSeconds())});
    }
    Table.print();
    std::printf("\n");
  }
  printStoreLines(Store);
}

/// --listen: serve the binary protocol until SIGINT/SIGTERM (blocked
/// in \p ShutdownSigs before any thread spawned), then print the net:
/// line.
int serveSocket(CertServer &Server, const ServingOptions &Serving,
                const sigset_t &ShutdownSigs) {
  NetServerConfig NetConfig;
  NetConfig.Port = Serving.ListenPort;
  NetConfig.MaxClients = Serving.MaxClients;
  NetConfig.ShedDepth = Serving.ShedDepth;
  NetConfig.ClientRate = Serving.ClientRate;
  NetConfig.ClientBurst = Serving.ClientBurst;
  NetServer Net(Server, NetConfig);
  std::string Error;
  if (!Net.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  // The CI smoke (and any script) learns the kernel-assigned port
  // from this line; keep its shape stable.
  std::printf("listening on 127.0.0.1:%u (dataset %s, threat %s, %u "
              "features)\n",
              Net.port(), Server.verifier().fingerprint().hex().c_str(),
              threatModelName(Serving.Threat),
              Server.verifier().trainingSet().numFeatures());
  std::fflush(stdout);

  int Sig = 0;
  sigwait(&ShutdownSigs, &Sig);
  std::printf("signal %d: shutting down\n", Sig);
  Net.stop();
  NetServerStats Stats = Net.stats();
  std::printf("net: accepted=%llu refused=%llu framing=%llu "
              "requests=%llu verified=%llu stored=%llu "
              "shed_overload=%llu shed_paced=%llu bad_requests=%llu "
              "cancelled=%llu repl_polls=%llu\n",
              static_cast<unsigned long long>(Stats.Accepted),
              static_cast<unsigned long long>(Stats.RefusedClients),
              static_cast<unsigned long long>(Stats.FramingErrors),
              static_cast<unsigned long long>(Stats.Requests),
              static_cast<unsigned long long>(Stats.Verified),
              static_cast<unsigned long long>(Stats.Stored),
              static_cast<unsigned long long>(Stats.ShedOverload),
              static_cast<unsigned long long>(Stats.ShedPaced),
              static_cast<unsigned long long>(Stats.BadArity),
              static_cast<unsigned long long>(Stats.Cancelled),
              static_cast<unsigned long long>(Stats.ReplicationPolls));
  return 0;
}

/// --serve: answer one query per stdin line, in submission order.
int serveStdin(CertServer &Server, const CliOptions &Options) {
  const unsigned NumFeatures = Server.verifier().trainingSet().numFeatures();
  std::printf("serving (dataset %s, threat %s): one query per line on "
              "stdin (%u comma-separated features), n=%u\n",
              Server.verifier().fingerprint().hex().c_str(),
              threatModelName(Options.Serving.Threat), NumFeatures,
              Options.Budget);

  // Responses stream back in submission order as they complete — an
  // interactive client sees answers while it is still typing queries,
  // and a long-running feed cannot pile up unbounded futures (past the
  // window, reading blocks on the oldest in-flight answer — natural
  // backpressure against a producer outpacing verification).
  std::deque<std::future<Certificate>> Pending;
  size_t Submitted = 0, Printed = 0;
  unsigned Robust = 0;
  auto PrintFront = [&] {
    Certificate Cert = Pending.front().get();
    Pending.pop_front();
    Robust += Cert.isRobust();
    std::printf("query %4zu: %s\n", Printed++, Cert.summary().c_str());
    std::fflush(stdout);
  };
  const size_t MaxPending = 1024;

  std::string Line;
  size_t LineNo = 0;
  while (std::getline(std::cin, Line)) {
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<float> X;
    if (!parseQuery(Line, NumFeatures, X)) {
      std::fprintf(stderr,
                   "error: line %zu: query must have %u numeric "
                   "values\n",
                   LineNo, NumFeatures);
      // Don't let the destructor's clean drain fully verify a deep
      // backlog after the user already saw the error — cancel it.
      Server.abort();
      return 2;
    }
    Pending.push_back(Server.submit(std::move(X), Options.Budget));
    ++Submitted;
    while (!Pending.empty() &&
           (Pending.size() >= MaxPending ||
            Pending.front().wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready))
      PrintFront();
  }
  while (!Pending.empty())
    PrintFront();

  std::printf("served %zu queries (threat %s): %u robust\n", Submitted,
              threatModelName(Options.Serving.Threat), Robust);
  return Robust == Submitted ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Options;
  bool Parsed = parseArgs(Argc, Argv, Options);
  if (!Parsed || Options.Help) {
    printUsage();
    return Parsed ? 0 : 2;
  }
  const ServingOptions &Serving = Options.Serving;

  std::optional<BenchmarkDataset> Data = loadData(Options);
  if (!Data)
    return 2;
  const Dataset &Train = Data->Split.Train;
  const Dataset &Test = Data->Split.Test;
  if (Options.Budget > Train.numRows()) {
    std::fprintf(stderr,
                 "error: --n %u exceeds the %u-row training set (the "
                 "attacker cannot have contributed more rows than exist)\n",
                 Options.Budget, Train.numRows());
    return 2;
  }
  std::vector<float> Query;
  if (!Options.QueryValues.empty()) {
    if (!parseQuery(Options.QueryValues, Train.numFeatures(), Query)) {
      std::fprintf(stderr, "error: query must have %u numeric values\n",
                   Train.numFeatures());
      return 2;
    }
  } else if (Options.TestRow >= 0) {
    if (Options.TestRow >= static_cast<int>(Test.numRows())) {
      std::fprintf(stderr, "error: --row %d is past the %u-row test split\n",
                   Options.TestRow, Test.numRows());
      return 2;
    }
    const float *Row = Test.row(static_cast<unsigned>(Options.TestRow));
    Query.assign(Row, Row + Train.numFeatures());
  }

  // The RAM tier is always on under --serve/--listen and opt-in
  // (--cache-bytes, --cache-dir or their env twins) for the batch modes.
  std::optional<StoreTiers> Store = openStore(
      Serving, Serving.CacheEnabled || Options.Serve || Serving.Listen);
  if (!Store)
    return 2;
  if (Options.Sweep) {
    runSweep(*Data, Serving, *Store);
    return 0;
  }

  std::printf("training set: %u rows x %u features, %u classes\n",
              Train.numRows(), Train.numFeatures(), Train.numClasses());
  std::printf("threat model: %s (up to %u %s)\n",
              threatModelName(Serving.Threat), Options.Budget,
              Serving.Threat == ThreatModelKind::LabelFlip
                  ? "relabeled training rows"
                  : "attacker-contributed rows removed");

  if (Options.Serve || Serving.Listen) {
    // Block the shutdown signals *before* any thread spawns (the
    // replicator, the server workers, the event loop) so every thread
    // inherits the mask and sigwait is the only consumer — the one
    // portable way to both run an epoll loop and shut down cleanly on
    // SIGINT/SIGTERM.
    sigset_t ShutdownSigs;
    sigemptyset(&ShutdownSigs);
    sigaddset(&ShutdownSigs, SIGINT);
    sigaddset(&ShutdownSigs, SIGTERM);
    if (Serving.Listen)
      pthread_sigmask(SIG_BLOCK, &ShutdownSigs, nullptr);

    // The replica side: a background puller appending the source's
    // segment records through the normal validated path. Wired against
    // the abstract store — replication() resolves to the disk tier.
    std::unique_ptr<Replicator> Repl;
    if (Serving.Replicate) {
      ReplicatorConfig ReplConfig;
      ReplConfig.Host = Serving.ReplicateHost;
      ReplConfig.Port = Serving.ReplicatePort;
      ReplConfig.IntervalSeconds = Serving.ReplicateInterval;
      Repl = std::make_unique<Replicator>(*Store->Tiered, ReplConfig);
      std::string Error;
      if (!Repl->start(Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 2;
      }
      std::printf("replicating from %s:%u every %g s\n",
                  Serving.ReplicateHost.c_str(), Serving.ReplicatePort,
                  Serving.ReplicateInterval);
    }

    CertServerConfig ServerConfig;
    ServerConfig.Query = queryConfig(Options);
    ServerConfig.Jobs = Serving.Jobs;
    ServerConfig.Store = Store->Tiered.get();
    CertServer Server(Train, ServerConfig);
    int Code = Serving.Listen ? serveSocket(Server, Serving, ShutdownSigs)
                              : serveStdin(Server, Options);
    if (Code == 2)
      return Code;
    if (Repl) {
      // The replica's transcript line; the CI replication smoke pins
      // `applied=` exactly.
      Repl->stop();
      ReplicatorStats Stats = Repl->stats();
      std::printf("repl: polls=%llu applied=%llu duplicates=%llu "
                  "corrupt=%llu errors=%llu\n",
                  static_cast<unsigned long long>(Stats.Polls),
                  static_cast<unsigned long long>(Stats.Applied),
                  static_cast<unsigned long long>(Stats.Duplicates),
                  static_cast<unsigned long long>(Stats.Corrupt),
                  static_cast<unsigned long long>(Stats.Errors));
    }
    printStoreLines(*Store);
    return Code;
  }

  Verifier V(Train);
  // The one-shot and --all modes reuse the same composed store: a
  // RAM-only cache is pointless for a one-shot batch with distinct rows
  // but demos the hit path; the two-tier composition with a --cache-dir
  // makes even one-shot runs remember across processes — re-running the
  // same query answers from disk.
  VerifierConfig Config = queryConfig(Options);
  Config.Cache = Store->Tiered.get();
  // The process's one pool: --all spreads its rows over it, a lone query
  // its DTrace# frontier. Null when --jobs is 1.
  std::unique_ptr<ThreadPool> Pool = makeVerificationPool(Serving.Jobs);

  if (Options.AllRows) {
    std::vector<const float *> Inputs;
    for (uint32_t Row = 0; Row < Test.numRows(); ++Row)
      Inputs.push_back(Test.row(Row));
    std::printf("verifying %zu test rows on %u thread(s)\n", Inputs.size(),
                resolveJobs(Serving.Jobs));
    std::vector<Certificate> Certs =
        V.verifyBatch(Inputs, Options.Budget, Config, Pool.get());
    unsigned Robust = 0;
    for (uint32_t Row = 0; Row < Certs.size(); ++Row) {
      Robust += Certs[Row].isRobust();
      std::printf("row %4u: %s\n", Row, Certs[Row].summary().c_str());
    }
    std::printf("robust (threat %s): %u / %zu\n",
                threatModelName(Serving.Threat), Robust, Certs.size());
    printStoreLines(*Store);
    return Robust == Certs.size() ? 0 : 1;
  }

  Certificate Cert = V.verify(Query.data(), Options.Budget, Config,
                              Pool.get());
  std::printf("prediction: class %u\n", Cert.ConcretePrediction);
  std::printf("verdict: %s\n", Cert.summary().c_str());
  printStoreLines(*Store);
  return Cert.isRobust() ? 0 : 1;
}

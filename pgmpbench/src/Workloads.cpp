//===- pgmpbench/src/Workloads.cpp - The four benchmark workloads ----------===//
///
/// \file
/// Each workload generates a Scheme program and its requests from the
/// seed, and computes every expected result in C++ from the same
/// generated data, independently of the engine. The engine only ever
/// sees the generated files and request strings.
///
///   serve-casestudy  2 clients; the paper's pass-2 program in serving
///                    shape: profile-guided `case`, receiver-class
///                    prediction and profiled sequences, with a profile
///                    trained at set-up and loaded by the pool.
///   serve-skewflip   1 client; the same request kinds in two classes
///                    whose hot closures are disjoint, the hot class
///                    flipping every FlipEvery ops; no profile is loaded,
///                    the bus learns it online.
///   build-pgo        1 client; each op is one pass-2 build of a
///                    generated 48-function module.
///   serve-alloc      1 client; requests allocate lists, vectors, strings
///                    and hash tables, a quarter of them kept in a ring.
///
/// Sizes are stratified log-uniform draws: one per stratum, jittered
/// inside it. The seed moves contents, order and jitter, not the size
/// distribution, so two seeds measure the same workload.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/EnginePool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

using namespace pgmp;
using namespace pgmpbench;

namespace {

constexpr int64_t Modulus = 1000003;
const std::vector<std::string> CaseStudyLibs = {
    "exclusive-cond", "pgmp-case", "object-system", "profiled-seq"};

void writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    throw std::runtime_error("cannot write " + Path);
  size_t N = std::fwrite(Text.data(), 1, Text.size(), F);
  if (std::fclose(F) != 0 || N != Text.size())
    throw std::runtime_error("cannot write " + Path);
}

/// Overwrites one byte in the middle of \p Path (the oracle self-test).
void corruptFile(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "r+b");
  if (!F)
    throw std::runtime_error("cannot open " + Path);
  std::fseek(F, 0, SEEK_END);
  long Mid = std::ftell(F) / 2;
  std::fseek(F, Mid, SEEK_SET);
  int C = std::fgetc(F);
  std::fseek(F, Mid, SEEK_SET);
  std::fputc(C == '7' ? '8' : '7', F);
  std::fclose(F);
}

template <typename T> void shuffle(std::vector<T> &V, SeededRng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// \p N sizes log-uniform over [Lo, Hi], one per stratum, each jittered
/// within the middle fifth of its stratum, in seeded order.
std::vector<int64_t> stratifiedSizes(SeededRng &R, size_t N, double Lo,
                                     double Hi) {
  std::vector<int64_t> Out;
  for (size_t I = 0; I < N; ++I) {
    double U = (static_cast<double>(I) + 0.4 + 0.2 * R.unit()) /
               static_cast<double>(N);
    Out.push_back(std::llround(Lo * std::pow(Hi / Lo, U)));
  }
  shuffle(Out, R);
  return Out;
}

/// Index drawn with probability proportional to 1/(k+1).
size_t zipf(SeededRng &R, size_t N) {
  double Total = 0;
  for (size_t K = 0; K < N; ++K)
    Total += 1.0 / static_cast<double>(K + 1);
  double U = R.unit() * Total;
  for (size_t K = 0; K < N; ++K) {
    U -= 1.0 / static_cast<double>(K + 1);
    if (U < 0)
      return K;
  }
  return N - 1;
}

std::string num(int64_t V) { return std::to_string(V); }

/// A request: one line of Scheme and the exact integer it must return.
struct Request {
  std::string Text;
  int64_t Expected = 0;
  uint8_t Kind = 0;
};

bool resultMatches(const EvalResult &R, int64_t Expected, ClientLog &Log,
                   const std::string &What) {
  if (!R.Ok) {
    Log.fail(What + ": " + R.Error);
    return false;
  }
  if (!R.V.isFixnum() || R.V.asFixnum() != Expected) {
    Log.fail(What + ": wrong result (expected " + num(Expected) + ")");
    return false;
  }
  return true;
}

/// Tallies one profile load that took \p Ns; anything but Ok is a
/// failure here, degraded included: the build went ahead without the
/// profile it was meant to use.
void checkedLoad(const ProfileOpResult &R, uint64_t Ns, ClientLog &Log,
                 RunTotals &T) {
  ++T.ProfileLoads;
  T.ProfileLoadNs += Ns;
  if (R.Status != ProfileOpStatus::Ok)
    Log.fail("profile load " +
             std::string(R.degraded() ? "degraded: " : "failed: ") + R.Error);
}

void checkedStore(const ProfileOpResult &R, uint64_t Ns, ClientLog &Log,
                  RunTotals &T) {
  ++T.ProfileStores;
  T.ProfileStoreNs += Ns;
  if (R.Status != ProfileOpStatus::Ok)
    Log.fail("profile store failed: " + R.Error);
}

//===----------------------------------------------------------------------===//
// The case-study program (serve-casestudy, serve-skewflip)
//===----------------------------------------------------------------------===//

/// Figure 8's character mix (whitespace 55, parens 23+23, digits 10 per
/// 111) plus 10 letters.
char parseChar(SeededRng &R) {
  uint64_t Roll = R.below(121);
  if (Roll < 55)
    return ' ';
  if (Roll < 78)
    return '(';
  if (Roll < 101)
    return ')';
  if (Roll < 111)
    return static_cast<char>('0' + R.below(10));
  return static_cast<char>('a' + R.below(26));
}

int64_t parseClass(char C) {
  if (C == ' ')
    return 1;
  if (C >= '0' && C <= '9')
    return 2;
  if (C == '(')
    return 3;
  if (C == ')')
    return 4;
  if (C >= 'a' && C <= 'z')
    return 5;
  return 6;
}

/// Shape classes in receiver-frequency order; areas are exact integers.
int64_t shapeArea(int64_t Class, int64_t P) {
  switch (Class) {
  case 0:
    return 3 * P * P; // Circle r
  case 1:
    return P * P; // Square side
  case 2:
    return P * (P + 3); // Rect w=p h=p+3
  default:
    return (2 * P) * (P + 1) / 2; // Tri b=2p h=p+1
  }
}

const char *CaseStudyClasses = R"scm(
(class Circle ((r 0))
  (define-method (area this) (* 3 (field this r) (field this r))))
(class Square ((side 0))
  (define-method (area this) (* (field this side) (field this side))))
(class Rect ((w 0) (h 0))
  (define-method (area this) (* (field this w) (field this h))))
(class Tri ((b 0) (h 0))
  (define-method (area this) (quotient (* (field this b) (field this h)) 2)))
(define (mk-shape k p)
  (cond [(= k 0) (new-instance 'Circle (cons 'r p))]
        [(= k 1) (new-instance 'Square (cons 'side p))]
        [(= k 2) (new-instance 'Rect (cons 'w p) (cons 'h (+ p 3)))]
        [else (new-instance 'Tri (cons 'b (* 2 p)) (cons 'h (+ p 1)))]))
(define (mk-shapes ds)
  (let loop ([ds ds] [acc '()])
    (if (null? ds)
        (list->vector (reverse acc))
        (loop (cddr ds) (cons (mk-shape (car ds) (cadr ds)) acc)))))
)scm";

/// The three request handlers of one class (suffix V); each works on a
/// slice [start, start+n) of the class's resident data, wrapping around.
/// The `case` clauses are listed coldest first, so a profile has
/// something to fix.
std::string caseStudyHandlers(const std::string &V) {
  std::string S;
  S += "(define (rq-parse-" + V + " start n)\n"
       "  (let ([s text-" + V + "] [end (+ start n)])\n"
       "    (let loop ([i start] [acc 0])\n"
       "      (if (= i end)\n"
       "          acc\n"
       "          (loop (+ i 1)\n"
       "                (let ([a (* acc 31)])\n"
       "                  (modulo\n"
       "                   (case (string-ref s i)\n"
       "                     [(#\\a #\\b #\\c #\\d #\\e #\\f #\\g #\\h #\\i "
       "#\\j #\\k #\\l #\\m #\\n #\\o #\\p #\\q #\\r #\\s #\\t #\\u #\\v #\\w "
       "#\\x #\\y #\\z) (+ a 5)]\n"
       "                     [(#\\0 #\\1 #\\2 #\\3 #\\4 #\\5 #\\6 #\\7 #\\8 "
       "#\\9) (+ a 2)]\n"
       "                     [(#\\)) (+ a 4)]\n"
       "                     [(#\\() (+ a 3)]\n"
       "                     [(#\\space) (+ a 1)]\n"
       "                     [else (+ a 6)])\n"
       "                   1000003)))))))\n";
  S += "(define (rq-area-" + V + " start n)\n"
       "  (let* ([shapes shapes-" + V + "] [m (vector-length shapes)])\n"
       "    (let loop ([i 0] [acc 0])\n"
       "      (if (= i n)\n"
       "          acc\n"
       "          (loop (+ i 1)\n"
       "                (let ([x (vector-ref shapes (modulo (+ start i) m))])\n"
       "                  (modulo (+ acc (method x area)) 1000003)))))))\n";
  S += "(define (rq-seq-" + V + " start n)\n"
       "  (let* ([xs ints-" + V + "] [m (vector-length xs)])\n"
       "    (let fill ([i 0] [s (profiled-seq)])\n"
       "      (if (= i n)\n"
       "          (let walk ([s s] [acc 0])\n"
       "            (if (seq-empty? s)\n"
       "                acc\n"
       "                (walk (seq-rest s)\n"
       "                      (modulo (+ (* acc 3) (seq-first s)) 1000003))))\n"
       "          (fill (+ i 1)\n"
       "                (seq-push s (vector-ref xs (modulo (+ start i) m))))))))\n";
  return S;
}

/// Draws from a fixed multiset in blocks: each block holds every element
/// once, in seeded order. Any window of one block has the same
/// composition whatever the seed; only the order inside a block moves.
class BlockedDraw {
public:
  explicit BlockedDraw(std::vector<int64_t> Elems) : Block(std::move(Elems)) {}
  int64_t next(SeededRng &R) {
    if (Pos == Block.size()) {
      shuffle(Block, R);
      Pos = 0;
    }
    return Block[Pos++];
  }

private:
  std::vector<int64_t> Block;
  size_t Pos = Block.size();
};

/// One class's resident data, from which requests take slices. It is
/// kept small on purpose: every boundary collection traces it, and this
/// workload is meant to be dominated by evaluation, not reclamation.
class CaseStudyData {
public:
  static constexpr size_t NumKinds = 3; // parse, area, seq

  /// Appends the data definitions for class \p V to \p Src.
  void generate(SeededRng &R, const std::string &V, std::string &Src) {
    Suffix = V;
    for (size_t K = 0; K < NumKinds; ++K)
      Sizes.emplace_back(stratifiedSizes(R, 64, 64, 4096));
    Text.clear();
    for (int I = 0; I < 8192; ++I)
      Text += parseChar(R);
    Src += "(define text-" + V + " \"" + Text + "\")\n";
    Src += "(define shapes-" + V + " (mk-shapes '(";
    for (int I = 0; I < 1024; ++I) {
      int64_t Class = static_cast<int64_t>(zipf(R, 4));
      int64_t P = 1 + static_cast<int64_t>(R.below(50));
      Src += I ? " " : "";
      Src += num(Class) + " " + num(P);
      Areas.push_back(shapeArea(Class, P));
    }
    Src += ")))\n(define ints-" + V + " (list->vector '(";
    for (int I = 0; I < 4096; ++I) {
      Ints.push_back(static_cast<int64_t>(R.below(1000)));
      Src += I ? " " : "";
      Src += num(Ints.back());
    }
    Src += ")))\n";
  }

  /// The next request: kinds in the Zipf mix 6:3:2 (parse, area, seq),
  /// exact within every block of 11; sizes walk each kind's strata.
  Request next(SeededRng &R) {
    size_t Kind = static_cast<size_t>(Kinds.next(R));
    return make(R, Kind, Sizes[Kind].next(R));
  }

  /// A training set of the same mix: 3 blocks' worth of kinds, each kind
  /// with its own strata, so its composition does not depend on the seed.
  std::vector<Request> training(SeededRng &R) {
    std::vector<Request> Out;
    for (size_t Kind = 0; Kind < NumKinds; ++Kind) {
      size_t Count = 3 * static_cast<size_t>(std::count(
                             KindMix.begin(), KindMix.end(), Kind));
      for (int64_t N : stratifiedSizes(R, Count, 64, 4096))
        Out.push_back(make(R, Kind, N));
    }
    shuffle(Out, R);
    return Out;
  }

private:
  Request make(SeededRng &R, size_t Kind, int64_t N) const {
    static const char *Handler[NumKinds] = {"(rq-parse-", "(rq-area-",
                                            "(rq-seq-"};
    int64_t Start = 0, Acc = 0;
    switch (Kind) {
    case 0:
      Start = static_cast<int64_t>(R.below(Text.size() - N + 1));
      for (int64_t I = Start; I < Start + N; ++I)
        Acc = (Acc * 31 + parseClass(Text[I])) % Modulus;
      break;
    case 1:
      Start = static_cast<int64_t>(R.below(Areas.size()));
      for (int64_t I = 0; I < N; ++I)
        Acc = (Acc + Areas[(Start + I) % Areas.size()]) % Modulus;
      break;
    default:
      // seq-push conses onto the front: the walk sees the slice reversed.
      Start = static_cast<int64_t>(R.below(Ints.size()));
      for (int64_t I = N - 1; I >= 0; --I)
        Acc = (Acc * 3 + Ints[(Start + I) % Ints.size()]) % Modulus;
    }
    Request Rq;
    Rq.Text = Handler[Kind] + Suffix + " " + num(Start) + " " + num(N) + ")";
    Rq.Expected = Acc;
    Rq.Kind = static_cast<uint8_t>(Kind);
    return Rq;
  }

  const std::vector<int64_t> KindMix = {0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2};
  std::string Suffix;
  BlockedDraw Kinds{KindMix};
  std::vector<BlockedDraw> Sizes;
  std::string Text;
  std::vector<int64_t> Areas, Ints;
};

//===----------------------------------------------------------------------===//
// Serving: a pool replaying request streams in a closed loop
//===----------------------------------------------------------------------===//

/// What a serve-* workload generates; the serving loop is shared.
struct ServeInputs {
  std::vector<std::string> Libs;  ///< scheme/ libraries loaded first
  std::string Source;             ///< the workload file's text
  std::vector<Request> Training;  ///< instrumented pass 1; empty = none
  std::vector<std::vector<Request>> Streams; ///< per client, replayed
};

class ServeWorkload : public Workload {
public:
  ServeWorkload(unsigned Clients, uint64_t TraceOps,
                std::vector<std::string> Kinds)
      : Clients(Clients), TraceOpsPerClient(TraceOps),
        Kinds(std::move(Kinds)) {}

  unsigned clients() const override { return Clients; }
  uint64_t traceOps() const override { return TraceOpsPerClient; }
  const std::vector<std::string> &kindNames() const override { return Kinds; }

  void generate(uint64_t Seed, const std::string &Dir) override {
    In = makeInputs(Seed);
    WorkloadPath = Dir + "/workload.scm";
    ProfilePath = Dir + "/trained.profile";
    writeFile(WorkloadPath, In.Source);
  }

  void setup(bool Stats, bool SelfTest, ClientLog &Log,
             RunTotals &T) override {
    Pool.reset();
    CorruptFirst = SelfTest;
    bool Trained = !In.Training.empty();
    if (Trained)
      train(SelfTest, Log, T);

    // `pgmpi serve`'s defaults: auto tiering with fusion and inlining,
    // the bus at 4096 charges, boundary reclamation.
    EngineOptions Opts;
    Opts.Instrument = true;
    Opts.StatsEnabled = Stats;
    Opts.Tier.Mode = TierMode::Auto;
    Opts.ContinuousProfile.IntervalCharges = 4096;
    Opts.Reclaim = ReclaimMode::Boundary;
    uint64_t T0 = nowNs();
    Pool = std::make_unique<EnginePool>(Clients, Opts);
    T.EngineBuildNs += nowNs() - T0;
    T.EngineBuilds += Clients;
    if (Trained) {
      Pool->preRegisterFile(WorkloadPath);
      uint64_t L0 = nowNs();
      ProfileOpResult R = Pool->loadProfileAll(ProfilePath);
      checkedLoad(R, nowNs() - L0, Log, T);
      T.ProfileLoads += Clients - 1; // one load per worker
    }
    EnginePool::PoolResult Load = Pool->run([&](Engine &E, size_t) {
      EvalResult Last;
      for (const std::string &Lib : In.Libs)
        if (!(Last = E.loadLibrary(Lib)))
          return Last;
      return E.evalFile(WorkloadPath);
    });
    if (!Load)
      Log.fail("workload load: " + Load.Error);
    T.EvalCalls += Clients * (In.Libs.size() + 1);
    // Requests are data, not workload: as in `pgmpi serve`, they mint no
    // profile points of their own.
    for (size_t I = 0; I < Pool->size(); ++I)
      Pool->engine(I).setInstrumentation(false);
  }

  void run(const RunPlan &Plan, std::vector<ClientLog> &Logs,
           RunTotals &T) override {
    // Clients serve in rounds of BatchOps requests per Pool.run, so the
    // pool's join is part of what is measured (core.pool_wait_ratio).
    constexpr unsigned BatchOps = 64;
    std::vector<uint64_t> Done(Clients, 0), Busy(Clients, 0);
    std::vector<char> Stopped(Clients, 0);
    size_t Live = Clients;
    while (Live) {
      uint64_t W0 = nowNs();
      Pool->run([&](Engine &E, size_t W) {
        uint64_t B0 = nowNs();
        ClientLog &Log = Logs[W];
        const std::vector<Request> &Stream = In.Streams[W];
        for (unsigned J = 0; J < BatchOps && !Stopped[W]; ++J) {
          if (Plan.stop(Done[W], nowNs())) {
            Stopped[W] = 1;
            break;
          }
          const Request &Rq = Stream[Done[W] % Stream.size()];
          Probe Before;
          if (Plan.Trace)
            Before = Probe::of(E);
          uint64_t T0 = nowNs();
          EvalResult R = E.evalString(Rq.Text, "<request>");
          uint64_t T1 = nowNs();
          if (Plan.Trace) {
            Probe After = Probe::of(E);
            Log.record(Rq.Kind, T0, T1, &Before, &After);
          } else {
            Log.record(Rq.Kind, T0, T1);
          }
          bool Corrupt = CorruptFirst && W == 0 && Done[W] == 0;
          resultMatches(R, Rq.Expected + (Corrupt ? 1 : 0), Log, Rq.Text);
          ++Done[W];
        }
        Busy[W] += nowNs() - B0;
        EvalResult Ok;
        Ok.Ok = true;
        return Ok;
      });
      T.PoolWallNs += (nowNs() - W0) * Clients;
      Live = static_cast<size_t>(
          std::count(Stopped.begin(), Stopped.end(), 0));
    }
    for (unsigned W = 0; W < Clients; ++W) {
      T.PoolBusyNs += Busy[W];
      T.EvalCalls += Done[W];
      T.addEngine(Probe::of(Pool->engine(W)));
    }
    T.BusEpochs = Pool->bus() ? Pool->bus()->epochsPublished() : 0;
  }

protected:
  virtual ServeInputs makeInputs(uint64_t Seed) = 0;

private:
  /// Pass 1: an instrumented engine runs the training requests and
  /// stores the profile the pool then loads.
  void train(bool SelfTest, ClientLog &Log, RunTotals &T) {
    EngineOptions Opts;
    Opts.Instrument = true;
    Engine E(Opts);
    for (const std::string &Lib : In.Libs)
      if (!E.loadLibrary(Lib))
        Log.fail("training: cannot load " + Lib);
    if (EvalResult R = E.evalFile(WorkloadPath); !R)
      Log.fail("training: " + R.Error);
    for (const Request &Rq : In.Training)
      resultMatches(E.evalString(Rq.Text, "<request>"), Rq.Expected, Log,
                    "training " + Rq.Text);
    uint64_t S0 = nowNs();
    ProfileOpResult R = E.storeProfile(ProfilePath);
    checkedStore(R, nowNs() - S0, Log, T);
    if (SelfTest)
      corruptFile(ProfilePath);
  }

  unsigned Clients;
  uint64_t TraceOpsPerClient;
  std::vector<std::string> Kinds;
  ServeInputs In;
  std::string WorkloadPath, ProfilePath;
  std::unique_ptr<EnginePool> Pool;
  bool CorruptFirst = false;
};

class ServeCaseStudy : public ServeWorkload {
public:
  ServeCaseStudy() : ServeWorkload(2, 4096, {"parse", "area", "seq"}) {}

protected:
  ServeInputs makeInputs(uint64_t Seed) override {
    SeededRng R(Seed ^ 0x5e12e0000001ull);
    ServeInputs In;
    In.Libs = CaseStudyLibs;
    In.Source = CaseStudyClasses + caseStudyHandlers("a");
    CaseStudyData Data;
    Data.generate(R, "a", In.Source);
    In.Training = Data.training(R);
    In.Streams.resize(2);
    for (std::vector<Request> &S : In.Streams)
      for (int I = 0; I < 8192; ++I)
        S.push_back(Data.next(R));
    return In;
  }
};

class ServeSkewFlip : public ServeWorkload {
public:
  /// Ops between flips of the hot class; the stream holds six phases.
  static constexpr int FlipEvery = 512;
  ServeSkewFlip()
      : ServeWorkload(1, 6 * FlipEvery, {"parse", "area", "seq"}) {}

protected:
  ServeInputs makeInputs(uint64_t Seed) override {
    SeededRng R(Seed ^ 0x5e12e0000002ull);
    ServeInputs In;
    In.Libs = CaseStudyLibs;
    In.Source = CaseStudyClasses + caseStudyHandlers("a") +
                caseStudyHandlers("b");
    CaseStudyData A, B;
    A.generate(R, "a", In.Source);
    B.generate(R, "b", In.Source);
    In.Streams.resize(1);
    // Nine requests in every ten go to the hot class.
    BlockedDraw Hot({1, 1, 1, 1, 1, 1, 1, 1, 1, 0});
    for (int I = 0; I < 6 * FlipEvery; ++I) {
      bool UseA = ((I / FlipEvery) % 2 == 0) == (Hot.next(R) != 0);
      In.Streams[0].push_back(UseA ? A.next(R) : B.next(R));
    }
    return In;
  }
};

//===----------------------------------------------------------------------===//
// serve-alloc
//===----------------------------------------------------------------------===//

const char *AllocProgram = R"scm(
(define ring (make-vector 128 #f))
(define (keep! slot v) (when (>= slot 0) (vector-set! ring slot v)))
(define (rq-list n salt slot)
  (let ([l (let build ([i 0] [acc '()])
             (if (= i n)
                 acc
                 (build (+ i 1) (cons (modulo (* (+ i salt) 7) 1000) acc))))])
    (keep! slot l)
    (let sum ([l l] [acc 0])
      (if (null? l) acc (sum (cdr l) (+ acc (car l)))))))
(define (rq-vector n salt slot)
  (let ([v (make-vector n 0)])
    (let fill ([i 0])
      (when (< i n)
        (vector-set! v i (modulo (* (+ i salt) 13) 1000))
        (fill (+ i 1))))
    (keep! slot v)
    (let sum ([i 0] [acc 0])
      (if (= i n) acc (sum (+ i 1) (+ acc (vector-ref v i)))))))
(define (rq-string n salt slot)
  (let ([s (list->string
            (let build ([i 0] [acc '()])
              (if (= i n)
                  acc
                  (build (+ i 1)
                         (cons (integer->char (+ 97 (modulo (+ i salt) 26)))
                               acc)))))])
    (keep! slot s)
    (+ (string-length s) (char->integer (string-ref s (quotient n 2))))))
(define (rq-table n salt slot)
  (let ([h (make-eqv-hashtable)])
    (let fill ([i 0])
      (when (< i n)
        (hashtable-set! h (+ i salt) (* i 3))
        (fill (+ i 1))))
    (keep! slot h)
    (+ (hashtable-size h) (hashtable-ref h (+ salt (quotient n 2)) 0))))
)scm";

int64_t allocOracle(size_t Kind, int64_t N, int64_t Salt) {
  int64_t Acc = 0;
  switch (Kind) {
  case 0:
    for (int64_t I = 0; I < N; ++I)
      Acc += (I + Salt) * 7 % 1000;
    return Acc;
  case 1:
    for (int64_t I = 0; I < N; ++I)
      Acc += (I + Salt) * 13 % 1000;
    return Acc;
  case 2: {
    // The list is consed in reverse: position p holds element n-1-p.
    int64_t I = N - 1 - N / 2;
    return N + 97 + (I + Salt) % 26;
  }
  default:
    return N + 3 * (N / 2);
  }
}

class ServeAlloc : public ServeWorkload {
public:
  ServeAlloc() : ServeWorkload(1, 2048, {"list", "vector", "string", "table"}) {}

protected:
  ServeInputs makeInputs(uint64_t Seed) override {
    static const char *Handler[] = {"rq-list", "rq-vector", "rq-string",
                                    "rq-table"};
    constexpr int RingSlots = 128;
    SeededRng R(Seed ^ 0x5e12e0000004ull);
    BlockedDraw Kinds({0, 1, 2, 3});
    std::vector<BlockedDraw> Sizes;
    for (int Kind = 0; Kind < 4; ++Kind)
      Sizes.emplace_back(stratifiedSizes(R, 64, 1 << 6, 1 << 14));
    // After a prologue, every fourth request is kept, in the next ring
    // slot. A slot always holds the same kind, and the kept sizes of each
    // kind cycle through their own strata, so a full ring holds the same
    // live set whatever the seed. The prologue matters: the reclaim
    // policy pre-tenures a site once half its objects have survived, and
    // that choice sticks, so a big kept list among the first few requests
    // would switch the whole run to pre-tenured lists.
    std::vector<std::vector<int64_t>> KeptSizes;
    for (int Kind = 0; Kind < 4; ++Kind)
      KeptSizes.push_back(stratifiedSizes(R, RingSlots / 4, 1 << 6, 1 << 14));
    ServeInputs In;
    In.Source = AllocProgram;
    In.Streams.resize(1);
    constexpr int Prologue = 64;
    for (int I = 0; I < Prologue + 16 * RingSlots; ++I) {
      Request Rq;
      size_t Kind = static_cast<size_t>(Kinds.next(R));
      int64_t N = Sizes[Kind].next(R);
      int64_t Slot = -1;
      if (I >= Prologue && I % 4 == 3) {
        Slot = ((I - Prologue) / 4) % RingSlots;
        Kind = static_cast<size_t>(Slot % 4);
        N = KeptSizes[Kind][static_cast<size_t>(Slot / 4)];
      }
      int64_t Salt = static_cast<int64_t>(R.below(1000));
      Rq.Text = std::string("(") + Handler[Kind] + " " + num(N) + " " +
                num(Salt) + " " + num(Slot) + ")";
      Rq.Expected = allocOracle(Kind, N, Salt);
      Rq.Kind = static_cast<uint8_t>(Kind);
      In.Streams[0].push_back(std::move(Rq));
    }
    return In;
  }
};

//===----------------------------------------------------------------------===//
// build-pgo
//===----------------------------------------------------------------------===//

const char *BuildPrelude = R"scm(
(class Sq ((s 1))
  (define-method (area this) (* (field this s) (field this s)))
  (define-method (sides this) 4))
(class Rc ((w 1) (h 1))
  (define-method (area this) (* (field this w) (field this h)))
  (define-method (sides this) 4))
(class Tr ((b 1) (h 1))
  (define-method (area this) (quotient (* (field this b) (field this h)) 2))
  (define-method (sides this) 3))
(class Hx ((s 1))
  (define-method (area this) (* 6 (field this s) (field this s)))
  (define-method (sides this) 6))
(define (mk-shape k p)
  (cond [(= k 0) (new-instance 'Sq (cons 's p))]
        [(= k 1) (new-instance 'Rc (cons 'w p) (cons 'h (+ p 1)))]
        [(= k 2) (new-instance 'Tr (cons 'b (* 2 p)) (cons 'h p))]
        [else (new-instance 'Hx (cons 's p))]))
(define (mk-shapes ds)
  (let loop ([ds ds] [acc '()])
    (if (null? ds)
        (reverse acc)
        (loop (cddr ds) (cons (mk-shape (car ds) (cadr ds)) acc)))))
)scm";

int64_t buildShapeValue(bool Area, int64_t Class, int64_t P) {
  static const int64_t Sides[] = {4, 4, 3, 6};
  if (!Area)
    return Sides[Class];
  switch (Class) {
  case 0:
    return P * P;
  case 1:
    return P * (P + 1);
  case 2:
    return P * P;
  default:
    return 6 * P * P;
  }
}

/// One generated function: its definition, and a call of it whose result
/// the generator knows.
struct GenFunction {
  std::string Definition;
  std::string Call;
  int64_t Expected = 0;
};

/// `case` over the characters of a string, clauses in seeded order.
GenFunction genCase(SeededRng &R, const std::string &Name) {
  std::vector<char> Letters;
  for (char C = 'a'; C <= 'z'; ++C)
    Letters.push_back(C);
  shuffle(Letters, R);
  size_t NumClauses = 3 + R.below(3);
  std::vector<std::vector<char>> Clauses(NumClauses);
  std::vector<int64_t> Values;
  size_t Used = NumClauses + R.below(8);
  for (size_t I = 0; I < Used; ++I)
    Clauses[I < NumClauses ? I : R.below(NumClauses)].push_back(Letters[I]);
  for (size_t I = 0; I < NumClauses; ++I)
    Values.push_back(1 + static_cast<int64_t>(R.below(97)));
  int64_t Else = 1 + static_cast<int64_t>(R.below(97));

  GenFunction G;
  G.Definition = "(define (" + Name +
                 " s)\n"
                 "  (let ([n (string-length s)])\n"
                 "    (let loop ([i 0] [acc 0])\n"
                 "      (if (= i n)\n"
                 "          acc\n"
                 "          (loop (+ i 1)\n"
                 "                (let ([a (* acc 7)])\n"
                 "                  (modulo (case (string-ref s i)\n";
  for (size_t I = 0; I < NumClauses; ++I) {
    G.Definition += "                            [(";
    for (size_t J = 0; J < Clauses[I].size(); ++J)
      G.Definition += std::string(J ? " " : "") + "#\\" + Clauses[I][J];
    G.Definition += ") (+ a " + num(Values[I]) + ")]\n";
  }
  G.Definition += "                            [else (+ a " + num(Else) +
                  ")])\n"
                  "                          1000003)))))))\n";

  // The input leans on a seeded hot clause, so clause order matters.
  size_t Len = 8 + R.below(17);
  std::string S;
  int64_t Acc = 0;
  for (size_t I = 0; I < Len; ++I) {
    size_t Clause = zipf(R, NumClauses + 1);
    char C = Clause < NumClauses
                 ? Clauses[Clause][R.below(Clauses[Clause].size())]
                 : Letters[Used + R.below(Letters.size() - Used)];
    S += C;
    int64_t V = Else;
    for (size_t K = 0; K < NumClauses; ++K)
      if (std::find(Clauses[K].begin(), Clauses[K].end(), C) !=
          Clauses[K].end())
        V = Values[K];
    Acc = (Acc * 7 + V) % Modulus;
  }
  G.Call = "(" + Name + " \"" + S + "\")";
  G.Expected = Acc;
  return G;
}

/// `exclusive-cond` over three disjoint ranges of a residue.
GenFunction genCond(SeededRng &R, const std::string &Name) {
  int64_t A = 1 + static_cast<int64_t>(R.below(97));
  int64_t B = static_cast<int64_t>(R.below(100));
  int64_t T1 = 5 + static_cast<int64_t>(R.below(45));
  int64_t T2 = T1 + 5 + static_cast<int64_t>(R.below(45));
  int64_t V[3];
  for (int64_t &X : V)
    X = 1 + static_cast<int64_t>(R.below(50));
  std::vector<std::string> Clauses = {
      "[(< r " + num(T1) + ") (+ acc " + num(V[0]) + ")]",
      "[(and (>= r " + num(T1) + ") (< r " + num(T2) + ")) (+ acc " +
          num(V[1]) + ")]",
      "[(>= r " + num(T2) + ") (+ acc " + num(V[2]) + ")]"};
  shuffle(Clauses, R);
  GenFunction G;
  G.Definition = "(define (" + Name +
                 " n)\n"
                 "  (let loop ([i 0] [acc 0])\n"
                 "    (if (= i n)\n"
                 "        acc\n"
                 "        (loop (+ i 1)\n"
                 "              (let ([r (modulo (+ (* i " +
                 num(A) + ") " + num(B) +
                 ") 100)])\n"
                 "                (exclusive-cond\n";
  for (const std::string &C : Clauses)
    G.Definition += "                  " + C + "\n";
  G.Definition += "                  ))))))\n";
  int64_t N = 8 + static_cast<int64_t>(R.below(17));
  int64_t Acc = 0;
  for (int64_t I = 0; I < N; ++I) {
    int64_t Res = (I * A + B) % 100;
    Acc += Res < T1 ? V[0] : Res < T2 ? V[1] : V[2];
  }
  G.Call = "(" + Name + " " + num(N) + ")";
  G.Expected = Acc;
  return G;
}

/// A `method` call site over a receiver list with a seeded class skew.
GenFunction genMethod(SeededRng &R, const std::string &Name) {
  bool Area = R.below(2) == 0;
  std::vector<int64_t> ClassOrder = {0, 1, 2, 3};
  shuffle(ClassOrder, R);
  GenFunction G;
  G.Definition = "(define (" + Name +
                 " shapes)\n"
                 "  (let loop ([ss shapes] [acc 0])\n"
                 "    (if (null? ss)\n"
                 "        acc\n"
                 "        (loop (cdr ss) (+ acc (method (car ss) " +
                 (Area ? "area" : "sides") + "))))))\n";
  size_t N = 4 + R.below(9);
  G.Call = "(" + Name + " (mk-shapes '(";
  for (size_t I = 0; I < N; ++I) {
    int64_t Class = ClassOrder[zipf(R, 4)];
    int64_t P = 1 + static_cast<int64_t>(R.below(9));
    G.Call += I ? " " : "";
    G.Call += num(Class) + " " + num(P);
    G.Expected += buildShapeValue(Area, Class, P);
  }
  G.Call += ")))";
  return G;
}

/// A `profiled-seq` used by random access (vector-friendly) or by
/// first/rest walks (list-friendly), chosen by the seed.
GenFunction genSeq(SeededRng &R, const std::string &Name) {
  size_t M = 6 + R.below(11);
  std::vector<int64_t> Elems;
  std::string Init;
  for (size_t I = 0; I < M; ++I) {
    Elems.push_back(static_cast<int64_t>(R.below(100)));
    Init += " " + num(Elems.back());
  }
  int64_t N = 6 + static_cast<int64_t>(R.below(11));
  GenFunction G;
  if (R.below(2) == 0) {
    int64_t P = 1 + static_cast<int64_t>(R.below(7));
    G.Definition = "(define (" + Name +
                   " n)\n"
                   "  (let ([s (profiled-seq" +
                   Init +
                   ")])\n"
                   "    (let loop ([i 0] [acc 0])\n"
                   "      (if (= i n)\n"
                   "          acc\n"
                   "          (loop (+ i 1) (+ acc (seq-ref s (modulo (* i " +
                   num(P) + ") " + num(static_cast<int64_t>(M)) +
                   "))))))))\n";
    for (int64_t I = 0; I < N; ++I)
      G.Expected += Elems[static_cast<size_t>((I * P) % static_cast<int64_t>(M))];
  } else {
    G.Definition = "(define (" + Name +
                   " n)\n"
                   "  (let ([s (profiled-seq" +
                   Init +
                   ")])\n"
                   "    (let loop ([i 0] [t s] [acc 0])\n"
                   "      (cond [(= i n) acc]\n"
                   "            [(seq-empty? t) (loop (+ i 1) s acc)]\n"
                   "            [else (loop i (seq-rest t) (+ acc (seq-first "
                   "t)))]))))\n";
    int64_t Sum = 0;
    for (int64_t E : Elems)
      Sum += E;
    G.Expected = N * Sum;
  }
  G.Call = "(" + Name + " " + num(N) + ")";
  return G;
}

class BuildPgo : public Workload {
public:
  static constexpr size_t NumFunctions = 48;
  static constexpr size_t NumEntries = 8;
  static constexpr size_t PerEntry = NumFunctions / NumEntries;

  unsigned clients() const override { return 1; }
  uint64_t traceOps() const override { return 500; }
  const std::vector<std::string> &kindNames() const override {
    static const std::vector<std::string> Kinds = {"build"};
    return Kinds;
  }

  void generate(uint64_t Seed, const std::string &Dir) override {
    SeededRng R(Seed ^ 0x5e12e0000003ull);
    ModulePath = Dir + "/module.scm";
    ProfilePath = Dir + "/trained.profile";
    Module = BuildPrelude;
    std::vector<GenFunction> Fns;
    for (size_t K = 0; K < NumFunctions; ++K) {
      std::string Name = std::string("f") + num(static_cast<int64_t>(K));
      switch (K % 4) {
      case 0:
        Fns.push_back(genCase(R, Name));
        break;
      case 1:
        Fns.push_back(genCond(R, Name));
        break;
      case 2:
        Fns.push_back(genMethod(R, Name));
        break;
      default:
        Fns.push_back(genSeq(R, Name));
      }
      Module += Fns.back().Definition;
    }
    // Entry point j calls the PerEntry functions from PerEntry*j on:
    // every kind of site at least once.
    Expected.clear();
    for (size_t J = 0; J < NumEntries; ++J) {
      Module += "(define (entry-" + num(static_cast<int64_t>(J)) +
                ")\n  (modulo (+";
      int64_t Sum = 0;
      for (size_t K = PerEntry * J; K < PerEntry * (J + 1); ++K) {
        Module += "\n     " + Fns[K].Call;
        Sum += Fns[K].Expected;
      }
      Module += ")\n          1000003))\n";
      Expected.push_back(Sum % Modulus);
    }
    writeFile(ModulePath, Module);
  }

  void setup(bool, bool SelfTest, ClientLog &Log, RunTotals &T) override {
    CorruptFirst = SelfTest;
    // Pass 1: an instrumented build of the module (the libraries are not
    // what is being profiled), every entry point run once, and the
    // profile stored for the pass-2 builds the ops perform.
    Engine E;
    loadModule(E, Log, /*InstrumentModule=*/true);
    checkEntries(E, Log, false);
    uint64_t S0 = nowNs();
    ProfileOpResult R = E.storeProfile(ProfilePath);
    checkedStore(R, nowNs() - S0, Log, T);
    if (SelfTest)
      corruptFile(ProfilePath);
  }

  void run(const RunPlan &Plan, std::vector<ClientLog> &Logs,
           RunTotals &T) override {
    ClientLog &Log = Logs[0];
    EngineOptions Opts;
    Opts.StatsEnabled = Plan.Trace;
    for (uint64_t Done = 0; !Plan.stop(Done, nowNs()); ++Done) {
      uint64_t T0 = nowNs();
      auto E = std::make_unique<Engine>(Opts);
      uint64_t TE = nowNs();
      ProfileOpResult L = E->loadProfile(ProfilePath);
      uint64_t TL = nowNs();
      loadModule(*E, Log, false);
      uint64_t T1 = nowNs();
      Probe After = Probe::of(*E);
      if (Plan.Trace)
        Log.record(0, T0, T1, &ZeroProbe, &After);
      else
        Log.record(0, T0, T1);
      checkedLoad(L, TL - TE, Log, T);
      T.EngineBuilds += 1;
      T.EngineBuildNs += TE - T0;
      T.EvalCalls += CaseStudyLibs.size() + 1;
      T.addEngine(After);
      checkEntries(*E, Log, CorruptFirst && Done == 0);
    }
  }

private:
  void loadModule(Engine &E, ClientLog &Log, bool InstrumentModule) {
    for (const std::string &Lib : CaseStudyLibs)
      if (!E.loadLibrary(Lib))
        Log.fail("cannot load " + Lib);
    E.setInstrumentation(InstrumentModule);
    if (EvalResult R = E.evalString(Module, ModulePath); !R)
      Log.fail("module: " + R.Error);
  }

  void checkEntries(Engine &E, ClientLog &Log, bool Corrupt) {
    for (size_t J = 0; J < NumEntries; ++J) {
      std::string Name = "entry-" + num(static_cast<int64_t>(J));
      resultMatches(E.callGlobal(Name, {}),
                    Expected[J] + (Corrupt && J == 0 ? 1 : 0), Log, Name);
    }
  }

  std::string Module, ModulePath, ProfilePath;
  std::vector<int64_t> Expected;
  bool CorruptFirst = false;
  const Probe ZeroProbe{};
};

} // namespace

const std::vector<std::string> &pgmpbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "serve-casestudy", "serve-skewflip", "build-pgo", "serve-alloc"};
  return Names;
}

std::unique_ptr<Workload> pgmpbench::makeWorkload(const std::string &Name) {
  if (Name == "serve-casestudy")
    return std::make_unique<ServeCaseStudy>();
  if (Name == "serve-skewflip")
    return std::make_unique<ServeSkewFlip>();
  if (Name == "build-pgo")
    return std::make_unique<BuildPgo>();
  if (Name == "serve-alloc")
    return std::make_unique<ServeAlloc>();
  return nullptr;
}

#include "checks.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <sstream>

namespace streamline::analyzer {

namespace {

bool StartsWith(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}
bool EndsWith(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}
bool Contains(const std::string& s, const std::string& p) {
  return s.find(p) != std::string::npos;
}

/// The network edge owns socket discipline: every fd there is
/// non-blocking by construction (socket.cc), so socket syscalls under a
/// net/ directory are sanctioned. Matches src/net/ in the real tree and
/// net/ subtrees in fixture corpora; paths may be repo-relative or
/// absolute depending on the frontend.
bool IsNetEdgeFile(const SourceLoc& loc) {
  return Contains(loc.file, "/net/") || StartsWith(loc.file, "net/");
}

/// True when the call passes the MSG_DONTWAIT flag as a plain argument --
/// the per-call non-blocking form of send/recv.
bool HasDontWaitFlag(const CallSite& cs) {
  for (const CallSite::Arg& a : cs.args) {
    if (a.lvalue_head == "MSG_DONTWAIT") return true;
  }
  return false;
}

/// Blocking primitive classification on an *unresolved* call site:
/// OS / std facilities the program model has no body for.
bool IsIntrinsicBlocking(const CallSite& cs, std::string* display) {
  if (Contains(cs.qualifier, "this_thread") &&
      (cs.name == "sleep_for" || cs.name == "sleep_until")) {
    *display = "std::this_thread::" + cs.name;
    return true;
  }
  if (cs.qualifier.empty() && cs.receiver_chain.empty()) {
    static const char* kBlocking[] = {"sleep",     "usleep", "nanosleep",
                                      "fsync",     "fdatasync", "syncfs",
                                      "sem_wait",  "poll",   "select",
                                      "epoll_wait"};
    for (const char* b : kBlocking) {
      if (cs.name == b) {
        *display = cs.name;
        return true;
      }
    }
    // Socket syscalls park the thread on kernel buffers / the peer unless
    // the fd is non-blocking. The per-call MSG_DONTWAIT form is fine
    // anywhere; fd-level O_NONBLOCK is confined to src/net/, which is
    // sanctioned wholesale (see IsNetEdgeFile).
    static const char* kBlockingSock[] = {"send",    "recv",    "sendto",
                                          "recvfrom", "sendmsg", "recvmsg",
                                          "accept",  "accept4", "connect"};
    for (const char* b : kBlockingSock) {
      if (cs.name == b) {
        if (IsNetEdgeFile(cs.loc) || HasDontWaitFlag(cs)) return false;
        *display = cs.name + "(2)";
        return true;
      }
    }
  }
  return false;
}

/// Nondeterminism classification (wall clock, PRNG seeding from entropy).
bool IsIntrinsicNondet(const CallSite& cs, std::string* display) {
  if (Contains(cs.qualifier, "system_clock") && cs.name == "now") {
    *display = "std::chrono::system_clock::now";
    return true;
  }
  if (cs.qualifier.empty() || cs.qualifier == "std") {
    static const char* kNondet[] = {"rand", "srand", "time", "localtime",
                                    "gmtime", "clock", "gettimeofday"};
    if (cs.receiver_chain.empty()) {
      for (const char* b : kNondet) {
        if (cs.name == b) {
          *display = cs.name;
          return true;
        }
      }
    }
  }
  return false;
}

/// Resolved callees that *are* blocking sinks: their bodies park the thread.
bool IsBlockingSink(const std::string& qualified) {
  return StartsWith(qualified, "CondVar::Wait");
}

}  // namespace

// ---------------------------------------------------------------------------
// Resolver
// ---------------------------------------------------------------------------

Resolver::Resolver(const Program& prog) : prog_(prog) {
  for (const auto& [qn, fn] : prog_.functions) {
    by_bare_name_[fn.bare_name].push_back(qn);
  }
}

std::string Resolver::ResolveAlias(const std::string& name) const {
  for (const auto& [_, cls] : prog_.classes) {
    auto it = cls.aliases.find(name);
    if (it != cls.aliases.end()) return it->second;
  }
  return name;
}

std::string Resolver::FindFieldOwner(const std::string& cls,
                                     const std::string& field) const {
  std::set<std::string> seen;
  std::vector<std::string> work = {cls};
  while (!work.empty()) {
    std::string c = work.back();
    work.pop_back();
    if (c.empty() || !seen.insert(c).second) continue;
    auto it = prog_.classes.find(c);
    if (it == prog_.classes.end()) continue;
    if (it->second.member_types.count(field)) return c;
    for (const auto& b : it->second.bases) work.push_back(b);
  }
  return "";
}

std::string Resolver::LockId(const FunctionInfo& fn,
                             const std::vector<std::string>& chain) const {
  if (chain.empty()) return "";
  const std::string& field = chain.back();
  if (EndsWith(field, "()")) return "fn:" + field;  // MutexLock l(GlobalMu())
  if (chain.size() == 1) {
    if (fn.local_types.count(field)) {
      return fn.qualified_name + "/" + field;
    }
    const std::string owner = FindFieldOwner(fn.class_name, field);
    return owner.empty() ? "field:" + field : owner + "::" + field;
  }
  std::vector<std::string> prefix(chain.begin(), chain.end() - 1);
  const std::string cls = ChainClass(fn, prefix);
  if (!cls.empty()) {
    const std::string owner = FindFieldOwner(cls, field);
    if (!owner.empty()) return owner + "::" + field;
  }
  return "field:" + field;
}

void ResolveLockIds(Program* prog) {
  Resolver resolver(*prog);
  for (auto& [qn, fn] : prog->functions) {
    for (auto& l : fn.locks) {
      l.lock_id = resolver.LockId(fn, l.chain);
    }
    for (auto& l : fn.locks) {
      l.held_locks.clear();
      for (int h : l.held_idx) {
        if (h >= 0 && h < static_cast<int>(fn.locks.size())) {
          l.held_locks.push_back(fn.locks[h].lock_id);
        }
      }
    }
    for (auto& cs : fn.calls) {
      cs.held_locks.clear();
      for (int h : cs.held_idx) {
        if (h >= 0 && h < static_cast<int>(fn.locks.size())) {
          cs.held_locks.push_back(fn.locks[h].lock_id);
        }
      }
    }
  }
}

std::string Resolver::FieldTypeIn(const std::string& cls,
                                  const std::string& field) const {
  std::set<std::string> seen;
  std::vector<std::string> work = {cls};
  while (!work.empty()) {
    std::string c = work.back();
    work.pop_back();
    if (c.empty() || !seen.insert(c).second) continue;
    auto it = prog_.classes.find(c);
    if (it == prog_.classes.end()) continue;
    auto f = it->second.member_types.find(field);
    if (f != it->second.member_types.end()) return f->second;
    for (const auto& b : it->second.bases) work.push_back(b);
  }
  return "";
}

std::string Resolver::ChainClass(const FunctionInfo& caller,
                                 const std::vector<std::string>& chain) const {
  std::string cur;
  for (size_t k = 0; k < chain.size(); ++k) {
    std::string elem = chain[k];
    if (EndsWith(elem, "()")) return "";  // method-call element: return type
                                          // unknown -> fall back by name
    std::string next;
    if (k == 0) {
      if (elem == "this") {
        cur = caller.class_name;
        continue;
      }
      auto it = caller.local_types.find(elem);
      next = it != caller.local_types.end()
                 ? it->second
                 : FieldTypeIn(caller.class_name, elem);
      if (next.empty()) {
        // Range-for variable: type is the container's element type (the
        // container's recorded type is already unwrapped to the element).
        auto ef = caller.local_elem_of.find(elem);
        if (ef != caller.local_elem_of.end()) {
          next = ChainClass(caller, ef->second);
        }
      }
    } else {
      next = FieldTypeIn(cur, elem);
    }
    if (next.empty()) return "";
    cur = ResolveAlias(next);
  }
  return cur;
}

std::vector<std::string> Resolver::MethodTargets(
    const std::string& cls, const std::string& name) const {
  // Declaring classes: cls and ancestors that define/declare `name`; then
  // virtual dispatch adds every subclass of a declaring class that defines
  // it.
  std::vector<std::string> out;
  std::set<std::string> out_set;
  auto add = [&](const std::string& qn) {
    if (prog_.functions.count(qn) && out_set.insert(qn).second) {
      out.push_back(qn);
    }
  };
  std::set<std::string> declaring;
  {
    std::set<std::string> seen;
    std::vector<std::string> work = {cls};
    while (!work.empty()) {
      std::string c = work.back();
      work.pop_back();
      if (c.empty() || !seen.insert(c).second) continue;
      auto it = prog_.classes.find(c);
      if (it == prog_.classes.end()) continue;
      if (it->second.method_names.count(name)) declaring.insert(c);
      for (const auto& b : it->second.bases) work.push_back(b);
    }
  }
  for (const auto& c : declaring) {
    add(c + "::" + name);
    auto subs = prog_.subclasses.find(c);
    if (subs != prog_.subclasses.end()) {
      for (const auto& s : subs->second) add(s + "::" + name);
    }
  }
  return out;
}

std::vector<std::string> Resolver::Targets(const FunctionInfo& caller,
                                           const CallSite& cs) const {
  if (cs.indirect) return {};
  // Explicitly qualified: Class::Method or a std:: call (intrinsic).
  if (!cs.qualifier.empty()) {
    if (StartsWith(cs.qualifier, "std") || Contains(cs.qualifier, "chrono")) {
      return {};
    }
    // Last qualifier component is the class.
    std::string cls = cs.qualifier;
    auto pos = cls.rfind("::");
    if (pos != std::string::npos) cls = cls.substr(pos + 2);
    auto direct = MethodTargets(cls, cs.name);
    if (!direct.empty()) return direct;
    if (prog_.functions.count(cls + "::" + cs.name)) {
      return {cls + "::" + cs.name};
    }
    return {};
  }
  if (!cs.receiver_chain.empty()) {
    const std::string cls = ChainClass(caller, cs.receiver_chain);
    if (!cls.empty() && prog_.classes.count(cls)) {
      auto targets = MethodTargets(cls, cs.name);
      if (!targets.empty()) return targets;
      return {};  // known class, unknown method: std type or accessor
    }
    // Unknown receiver type: conservative name-based fallback, but only
    // for project-style CamelCase names -- lowercase receivers are STL
    // containers (x.size(), x.push_back()) and matching them against
    // same-named project methods floods the graph with false edges.
    if (cs.name.empty() || !std::isupper(static_cast<unsigned char>(
                               cs.name[0]))) {
      return {};
    }
    auto it = by_bare_name_.find(cs.name);
    return it == by_bare_name_.end() ? std::vector<std::string>{}
                                     : it->second;
  }
  // Unqualified call: self-call if the caller's class hierarchy has the
  // method, else a free function, else name fallback.
  if (!caller.class_name.empty()) {
    auto self = MethodTargets(caller.class_name, cs.name);
    if (!self.empty()) return self;
  }
  if (prog_.functions.count(cs.name)) return {cs.name};
  // Unqualified helpers in anonymous namespaces parse as free functions,
  // so the lookup above covers them; anything else is macro/ctor noise.
  return {};
}

// ---------------------------------------------------------------------------
// Reachability engine
// ---------------------------------------------------------------------------

namespace {

struct PathStep {
  std::string fn;
  SourceLoc loc;
};

/// Multi-source BFS over the call graph; invokes `visit` once per reached
/// function with the shortest entry path (entry first).
void Reach(const Program& prog, const Resolver& resolver,
           const std::vector<std::string>& entries,
           const std::function<void(const FunctionInfo&,
                                    const std::vector<PathStep>&)>& visit) {
  struct Node {
    std::string fn;
    int parent;
    SourceLoc via;  // call site in parent that reaches fn
  };
  std::vector<Node> nodes;
  std::set<std::string> seen;
  std::deque<int> queue;
  for (const auto& e : entries) {
    if (!seen.insert(e).second) continue;
    auto it = prog.functions.find(e);
    if (it == prog.functions.end()) continue;
    nodes.push_back({e, -1, it->second.loc});
    queue.push_back(static_cast<int>(nodes.size()) - 1);
  }
  while (!queue.empty()) {
    const int idx = queue.front();
    queue.pop_front();
    const Node node = nodes[idx];
    auto it = prog.functions.find(node.fn);
    if (it == prog.functions.end()) continue;
    const FunctionInfo& fn = it->second;
    // Reconstruct path.
    std::vector<PathStep> path;
    for (int k = idx; k != -1; k = nodes[k].parent) {
      path.push_back({nodes[k].fn, nodes[k].via});
    }
    std::reverse(path.begin(), path.end());
    visit(fn, path);
    for (const CallSite& cs : fn.calls) {
      for (const std::string& target : resolver.Targets(fn, cs)) {
        if (IsBlockingSink(target)) continue;  // sinks handled by visit
        if (!seen.insert(target).second) continue;
        nodes.push_back({target, idx, cs.loc});
        queue.push_back(static_cast<int>(nodes.size()) - 1);
      }
    }
  }
}

std::vector<std::pair<std::string, SourceLoc>> ToDiagPath(
    const std::vector<PathStep>& path) {
  std::vector<std::pair<std::string, SourceLoc>> out;
  for (const auto& s : path) out.push_back({s.fn, s.loc});
  return out;
}

// ---------------------------------------------------------------------------
// Check: block-in-morsel
// ---------------------------------------------------------------------------

std::vector<std::string> MorselEntries(const Program& prog) {
  std::vector<std::string> entries;
  for (const auto& [qn, fn] : prog.functions) {
    if (fn.class_name.empty()) continue;
    if (fn.bare_name == "Step" &&
        prog.DerivesFrom(fn.class_name, "Schedulable")) {
      entries.push_back(qn);
    }
    if ((fn.bare_name == "ProcessBatch" || fn.bare_name == "ProcessRecord" ||
         fn.bare_name == "ProcessWatermark") &&
        (prog.DerivesFrom(fn.class_name, "Operator") || fn.is_override)) {
      entries.push_back(qn);
    }
  }
  return entries;
}

void CheckBlockInMorsel(const Program& prog, const Resolver& resolver,
                        const CheckOptions& opts,
                        std::vector<Diagnostic>* out) {
  const auto entries = MorselEntries(prog);
  std::map<SourceLoc, Diagnostic> by_site;  // dedup: one per blocking site
  Reach(prog, resolver, entries,
        [&](const FunctionInfo& fn, const std::vector<PathStep>& path) {
          if (opts.blocking_allowlist.count(fn.qualified_name)) return;
          for (const CallSite& cs : fn.calls) {
            std::string display;
            bool blocking = IsIntrinsicBlocking(cs, &display);
            if (!blocking) {
              for (const std::string& target : resolver.Targets(fn, cs)) {
                if (IsBlockingSink(target)) {
                  blocking = true;
                  display = target;
                  break;
                }
              }
            }
            if (!blocking) continue;
            if (by_site.count(cs.loc)) continue;
            Diagnostic d;
            d.check = kCheckBlockInMorsel;
            d.loc = cs.loc;
            d.message = "blocking call '" + display +
                        "' reachable from morsel entry '" + path.front().fn +
                        "'";
            d.path = ToDiagPath(path);
            d.path.push_back({"[blocks] " + display, cs.loc});
            by_site.emplace(cs.loc, std::move(d));
          }
        });
  for (auto& [_, d] : by_site) out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Check: snapshot-nondeterminism
// ---------------------------------------------------------------------------

std::vector<std::string> SnapshotEntries(const Program& prog) {
  std::vector<std::string> entries;
  for (const auto& [qn, fn] : prog.functions) {
    if (StartsWith(fn.bare_name, "Snapshot") ||
        StartsWith(fn.bare_name, "Restore") ||
        StartsWith(fn.bare_name, "ApplyDelta")) {
      entries.push_back(qn);
    }
  }
  return entries;
}

void CheckSnapshotDeterminism(const Program& prog, const Resolver& resolver,
                              std::vector<Diagnostic>* out) {
  const auto entries = SnapshotEntries(prog);
  std::map<SourceLoc, Diagnostic> by_site;
  Reach(prog, resolver, entries,
        [&](const FunctionInfo& fn, const std::vector<PathStep>& path) {
          for (const CallSite& cs : fn.calls) {
            std::string display;
            if (!IsIntrinsicNondet(cs, &display)) continue;
            if (by_site.count(cs.loc)) continue;
            Diagnostic d;
            d.check = kCheckSnapshotDeterminism;
            d.loc = cs.loc;
            d.message = "nondeterministic call '" + display +
                        "' reachable from snapshot entry '" +
                        path.front().fn + "'";
            d.path = ToDiagPath(path);
            d.path.push_back({"[nondeterministic] " + display, cs.loc});
            by_site.emplace(cs.loc, std::move(d));
          }
        });
  for (auto& [_, d] : by_site) out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Check: record-copy-in-hot-path
// ---------------------------------------------------------------------------

std::vector<std::string> HotPathEntries(const Program& prog) {
  std::vector<std::string> entries;
  for (const auto& [qn, fn] : prog.functions) {
    if (fn.class_name.empty()) continue;
    if ((fn.bare_name == "ProcessBatch" || fn.bare_name == "ProcessRecord") &&
        (prog.DerivesFrom(fn.class_name, "Operator") || fn.is_override)) {
      entries.push_back(qn);
    }
    if ((fn.bare_name == "Emit" || fn.bare_name == "EmitBatch") &&
        prog.DerivesFrom(fn.class_name, "Collector")) {
      entries.push_back(qn);
    }
  }
  return entries;
}

void CheckRecordCopies(const Program& prog, const Resolver& resolver,
                       std::vector<Diagnostic>* out) {
  const auto entries = HotPathEntries(prog);
  std::map<SourceLoc, Diagnostic> by_site;
  auto is_hot_type = [](const std::string& type) {
    return type == "Record" || type == "Value";
  };
  Reach(prog, resolver, entries,
        [&](const FunctionInfo& fn, const std::vector<PathStep>& path) {
          auto report = [&](const SourceLoc& loc, const std::string& desc) {
            if (by_site.count(loc)) return;
            Diagnostic d;
            d.check = kCheckRecordCopy;
            d.loc = loc;
            d.message = desc + " on hot path from '" + path.front().fn + "'";
            d.path = ToDiagPath(path);
            d.path.push_back({"[copies] " + desc, loc});
            by_site.emplace(loc, std::move(d));
          };
          // Copy-initialized locals the frontend saw directly.
          for (const RecordCopy& copy : fn.copies) {
            report(copy.loc, copy.description);
          }
          // Lvalue arguments bound to by-value Record/Value parameters.
          for (const CallSite& cs : fn.calls) {
            for (const std::string& target : resolver.Targets(fn, cs)) {
              auto it = prog.functions.find(target);
              if (it == prog.functions.end()) continue;
              const FunctionInfo& callee = it->second;
              const size_t n = std::min(cs.args.size(), callee.params.size());
              for (size_t k = 0; k < n; ++k) {
                const auto& arg = cs.args[k];
                const auto& param = callee.params[k];
                if (arg.lvalue_head.empty() || !param.by_value ||
                    !is_hot_type(param.type)) {
                  continue;
                }
                // Require the argument's own type to confirm (avoids
                // overload-merge noise).
                auto lt = fn.local_types.find(arg.lvalue_head);
                if (lt == fn.local_types.end() || lt->second != param.type) {
                  continue;
                }
                report(cs.loc,
                       param.type + " '" + arg.lvalue_head +
                           "' passed by value to '" + target + "'" +
                           (arg.conditional ? " on one ?: branch" : ""));
              }
            }
          }
        });
  for (auto& [_, d] : by_site) out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Check: raw-socket
// ---------------------------------------------------------------------------

/// socket(2)/socketpair(2) creation is confined to the network edge:
/// src/net/ wraps every descriptor in an owning Fd, sets O_NONBLOCK +
/// CLOEXEC, and keeps blocking IO off the worker pool. A raw socket call
/// anywhere else reintroduces an unaccounted, blocking-by-default fd.
/// Not reachability-based: creation is forbidden outside the edge no
/// matter who calls the creator.
void CheckRawSocket(const Program& prog, std::vector<Diagnostic>* out) {
  for (const auto& [qn, fn] : prog.functions) {
    for (const CallSite& cs : fn.calls) {
      if (!cs.qualifier.empty() || !cs.receiver_chain.empty()) continue;
      if (cs.name != "socket" && cs.name != "socketpair") continue;
      if (IsNetEdgeFile(cs.loc)) continue;
      Diagnostic d;
      d.check = kCheckRawSocket;
      d.loc = cs.loc;
      d.message = "raw " + cs.name +
                  "(2) call in '" + qn +
                  "' outside src/net/ -- socket creation belongs to the "
                  "network edge";
      d.path.push_back({qn, fn.loc});
      d.path.push_back({"[creates socket] " + cs.name, cs.loc});
      out->push_back(std::move(d));
    }
  }
}

// ---------------------------------------------------------------------------
// Check: lock-order-cycle
// ---------------------------------------------------------------------------

struct LockEdge {
  std::string held;
  std::string acquired;
  std::string fn;  // witness function
  SourceLoc loc;   // witness acquisition / call site
};

bool IsLockMachinery(const std::string& class_name) {
  return class_name == "Mutex" || class_name == "MutexLock" ||
         class_name == "CondVar";
}

void CheckLockOrder(const Program& prog, const Resolver& resolver,
                    std::vector<Diagnostic>* out) {
  // Transitive lock sets per function (fixpoint; graph is small).
  std::map<std::string, std::set<std::string>> acq;
  for (const auto& [qn, fn] : prog.functions) {
    if (IsLockMachinery(fn.class_name)) continue;
    for (const auto& l : fn.locks) acq[qn].insert(l.lock_id);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [qn, fn] : prog.functions) {
      if (IsLockMachinery(fn.class_name)) continue;
      auto& mine = acq[qn];
      const size_t before = mine.size();
      for (const CallSite& cs : fn.calls) {
        for (const std::string& t : resolver.Targets(fn, cs)) {
          auto it = acq.find(t);
          if (it == acq.end()) continue;
          mine.insert(it->second.begin(), it->second.end());
        }
      }
      changed = changed || mine.size() != before;
    }
  }
  // Edges held -> acquired, with witnesses.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto add_edge = [&](const std::string& held, const std::string& acquired,
                      const std::string& fn, const SourceLoc& loc) {
    if (held == acquired) return;  // re-entrancy is the annotations' job
    edges.emplace(std::make_pair(held, acquired),
                  LockEdge{held, acquired, fn, loc});
  };
  for (const auto& [qn, fn] : prog.functions) {
    if (IsLockMachinery(fn.class_name)) continue;
    for (const auto& l : fn.locks) {
      for (const auto& h : l.held_locks) add_edge(h, l.lock_id, qn, l.loc);
    }
    for (const CallSite& cs : fn.calls) {
      if (cs.held_locks.empty()) continue;
      for (const std::string& t : resolver.Targets(fn, cs)) {
        auto it = acq.find(t);
        if (it == acq.end()) continue;
        for (const std::string& l : it->second) {
          for (const auto& h : cs.held_locks) add_edge(h, l, qn, cs.loc);
        }
      }
    }
  }
  // Cycle detection: DFS with colors; report each cycle canonically once.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, _] : edges) adj[key.first].push_back(key.second);
  std::set<std::string> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const auto& v : adj[u]) {
      if (color[v] == 1) {
        // Found a cycle: stack from v..u.
        auto it = std::find(stack.begin(), stack.end(), v);
        std::vector<std::string> cycle(it, stack.end());
        // Canonical rotation: smallest element first.
        auto mn = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), mn, cycle.end());
        std::string key;
        for (const auto& c : cycle) key += c + ";";
        if (!reported.insert(key).second) continue;
        Diagnostic d;
        d.check = kCheckLockOrder;
        d.message = "lock-order cycle: ";
        for (size_t k = 0; k < cycle.size(); ++k) {
          d.message += cycle[k] + " -> ";
        }
        d.message += cycle[0];
        for (size_t k = 0; k < cycle.size(); ++k) {
          const std::string& a = cycle[k];
          const std::string& b = cycle[(k + 1) % cycle.size()];
          auto e = edges.find({a, b});
          if (e == edges.end()) continue;
          d.path.push_back({"holds '" + a + "', acquires '" + b + "' in " +
                                e->second.fn,
                            e->second.loc});
        }
        if (!d.path.empty()) d.loc = d.path.front().second;
        out->push_back(std::move(d));
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, _] : adj) {
    if (color[u] == 0) dfs(u);
  }
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

bool WaiverMatches(const Waiver& w, const Diagnostic& d) {
  if (w.check != d.check) return false;
  auto near = [&](const SourceLoc& loc) {
    return loc.file == w.loc.file &&
           (loc.line == w.loc.line || loc.line == w.loc.line + 1);
  };
  if (near(d.loc)) return true;
  for (const auto& [_, loc] : d.path) {
    if (near(loc)) return true;
  }
  return false;
}

}  // namespace

std::vector<Diagnostic> RunChecks(Program& prog, const CheckOptions& opts) {
  ResolveLockIds(&prog);
  Resolver resolver(prog);
  std::vector<Diagnostic> all;
  auto enabled = [&](const char* name) {
    return opts.only.empty() || opts.only.count(name) > 0;
  };
  if (enabled(kCheckBlockInMorsel)) {
    CheckBlockInMorsel(prog, resolver, opts, &all);
  }
  if (enabled(kCheckLockOrder)) CheckLockOrder(prog, resolver, &all);
  if (enabled(kCheckSnapshotDeterminism)) {
    CheckSnapshotDeterminism(prog, resolver, &all);
  }
  if (enabled(kCheckRecordCopy)) CheckRecordCopies(prog, resolver, &all);
  if (enabled(kCheckRawSocket)) CheckRawSocket(prog, &all);

  // Apply waivers: a matching waiver with a reason suppresses; one without
  // a reason is itself an error and suppresses nothing.
  std::vector<Diagnostic> kept;
  for (auto& d : all) {
    bool suppressed = false;
    for (const Waiver& w : prog.waivers) {
      if (!WaiverMatches(w, d)) continue;
      w.used = true;
      if (!w.reason.empty()) suppressed = true;
    }
    if (!suppressed) kept.push_back(std::move(d));
  }
  for (const Waiver& w : prog.waivers) {
    if (w.used && w.reason.empty()) {
      Diagnostic d;
      d.check = kCheckStaleWaiver;
      d.loc = w.loc;
      d.message = "waiver for '" + w.check + "' is missing a reason "
                  "(use `analyzer:allow(" + w.check + "): <why>`)";
      kept.push_back(std::move(d));
    } else if (!w.used && enabled(w.check.c_str())) {
      // A waiver for a check that did not run this invocation cannot be
      // judged stale; only full runs police staleness.
      Diagnostic d;
      d.check = kCheckStaleWaiver;
      d.loc = w.loc;
      d.message = "stale waiver: no '" + w.check +
                  "' diagnostic matches this `analyzer:allow`";
      kept.push_back(std::move(d));
    }
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Diagnostic& a, const Diagnostic& b) {
                           return !(a < b) && !(b < a);
                         }),
             kept.end());
  return kept;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.loc.file << ":" << d.loc.line << ": [" << d.check << "] "
     << d.message << "\n";
  for (size_t k = 0; k < d.path.size(); ++k) {
    os << "    #" << k << " " << d.path[k].first << " @ "
       << d.path[k].second.file << ":" << d.path[k].second.line << "\n";
  }
  return os.str();
}

}  // namespace streamline::analyzer

#include "server/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "rdd/context.h"
#include "server/net_util.h"
#include "sim/cluster_metrics.h"

namespace shark {

namespace {

/// ERR payloads must stay on one line.
std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  return s;
}

std::string FormatValue(const Value& v) { return OneLine(v.ToString()); }

}  // namespace

SharkServer::SharkServer(std::shared_ptr<SharkSession> session,
                         Options options)
    : session_(std::move(session)),
      options_(options),
      jobs_(&session_->context(),
            [&] {
              JobManager::Options jo;
              jo.max_concurrent = options.max_concurrent;
              return jo;
            }()),
      qlog_([&] {
        QueryLog::Options qo;
        qo.capacity = options.query_log_capacity;
        qo.slow_virtual_seconds = options.slow_query_virtual_seconds;
        qo.jsonl_path = options.query_log_path;
        return qo;
      }()) {}

SharkServer::~SharkServer() { Stop(); }

Status SharkServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }

  jobs_.Start();
  if (options_.obs_port >= 0) {
    obs_ = std::make_unique<HttpListener>(
        [this](const HttpRequest& req, HttpResponse* resp) {
          HandleObs(req, resp);
        });
    Status obs_status = obs_->Start(options_.obs_port);
    if (!obs_status.ok()) {
      jobs_.Stop();
      return obs_status;
    }
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SharkServer::Stop() {
  if (stopping_.exchange(true)) return;
  // The observability listener goes first: its handlers call
  // jobs_.Inspect(), which must not outlive the streaming driver.
  if (obs_) obs_->Stop();
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (jobs_.started()) jobs_.Stop();
}

void SharkServer::AcceptLoop() {
  while (!stopping_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    uint64_t conn_id = next_conn_id_++;
    live_fds_.insert(fd);
    conn_threads_.emplace_back(
        [this, fd, conn_id] { ServeConnection(fd, conn_id); });
  }
}

void SharkServer::ServeConnection(int fd, uint64_t conn_id) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_[conn_id];  // visible in /top from the first command
  }
  LineReader reader(fd);
  std::string line;
  while (reader.ReadLine(&line)) {
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "QUIT") {
      WriteAll(fd, "OK\n");
      break;
    } else if (cmd == "QUERY" || cmd == "QUERYID") {
      std::string qid;
      if (cmd == "QUERYID") in >> qid;
      std::string rest;
      std::getline(in, rest);
      size_t start = rest.find_first_not_of(' ');
      std::string sql =
          start == std::string::npos ? "" : rest.substr(start);
      if (cmd == "QUERYID" && qid.empty()) {
        if (!WriteAll(fd, "ERR QUERYID needs an id\n")) break;
        continue;
      }
      if (!HandleQuery(fd, conn_id, qid, sql)) break;
    } else if (cmd == "SET") {
      std::string knob;
      in >> knob;
      if (knob == "WEIGHT") {
        double w = 1.0;
        if (in >> w && w > 0) {
          std::lock_guard<std::mutex> lock(sessions_mu_);
          sessions_[conn_id].weight = w;
          if (!WriteAll(fd, "OK\n")) break;
        } else if (!WriteAll(fd, "ERR SET WEIGHT needs a positive number\n")) {
          break;
        }
      } else if (knob == "MEMDEMAND") {
        uint64_t bytes = 0;
        if (in >> bytes) {
          std::lock_guard<std::mutex> lock(sessions_mu_);
          sessions_[conn_id].mem_demand_bytes = bytes;
          if (!WriteAll(fd, "OK\n")) break;
        } else if (!WriteAll(fd, "ERR SET MEMDEMAND needs a byte count\n")) {
          break;
        }
      } else if (!WriteAll(fd, "ERR unknown knob: " + OneLine(knob) + "\n")) {
        break;
      }
    } else if (cmd == "STATS") {
      if (!HandleStats(fd, conn_id)) break;
    } else {
      if (!WriteAll(fd, "ERR unknown command: " + OneLine(cmd) + "\n")) break;
    }
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_[conn_id].live = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  live_fds_.erase(fd);
}

bool SharkServer::HandleQuery(int fd, uint64_t conn_id,
                              const std::string& client_qid,
                              const std::string& sql) {
  total_queries_++;
  const std::string session_name = "conn" + std::to_string(conn_id);
  uint64_t session_queries;
  double weight;
  uint64_t mem_demand;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    SessionState& st = sessions_[conn_id];
    st.queries++;
    session_queries = st.queries;
    weight = st.weight;
    mem_demand = st.mem_demand_bytes;
  }
  const std::string query_id =
      !client_qid.empty() ? client_qid
                          : "q" + std::to_string(next_query_seq_++);

  auto reject = [&](const std::string& msg) {
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_[conn_id].errors++;
    }
    total_errors_++;
    QueryLogEntry e;
    e.query_id = query_id;
    e.session = session_name;
    e.sql = sql;
    e.status = "rejected";
    e.error = msg;
    qlog_.Complete(std::move(e));
    return WriteAll(fd, "ERR " + msg + "\n");
  };
  if (options_.max_queries_per_connection != 0 &&
      session_queries > options_.max_queries_per_connection) {
    return reject("quota exceeded: connection limited to " +
                  std::to_string(options_.max_queries_per_connection) +
                  " queries");
  }
  if (sql.empty()) return reject("empty query");

  {
    QueryLogEntry running;
    running.query_id = query_id;
    running.session = session_name;
    running.sql = sql;
    qlog_.Begin(std::move(running));
  }

  // The job body runs on a JobManager thread under the engine baton; the
  // result (and the EXPLAIN ANALYZE rendering, for the slow-query log)
  // travels back through this shared holder.
  struct JobPayload {
    QueryResult result;
    std::string analyzed_plan;
  };
  auto holder = std::make_shared<JobPayload>();
  JobSpec spec;
  spec.label = session_name + "#" + std::to_string(session_queries);
  spec.query_id = query_id;
  spec.session = session_name;
  spec.weight = weight;
  spec.mem_demand_bytes = mem_demand;
  spec.body = [this, holder, sql]() -> Status {
    auto r = session_->Sql(sql, &holder->analyzed_plan);
    SHARK_RETURN_NOT_OK(r.status());
    holder->result = std::move(*r);
    return Status::OK();
  };
  uint64_t ticket = jobs_.Submit(std::move(spec));
  JobOutcome outcome = jobs_.Await(ticket);

  QueryLogEntry done;
  done.query_id = query_id;
  done.session = session_name;
  done.sql = sql;
  done.queued = outcome.queued;
  done.queue_delay = outcome.queue_delay();
  done.latency = outcome.latency();
  done.host_ms = outcome.host_seconds >= 0 ? outcome.host_seconds * 1e3 : 0.0;
  if (outcome.status.ok()) {
    const QueryResult& res = holder->result;
    done.status = "ok";
    done.virtual_seconds = res.metrics.virtual_seconds;
    done.rows = res.rows.size();
    done.stages = res.metrics.stages;
    done.tasks = res.metrics.tasks;
    done.tasks_failed = res.metrics.tasks_failed;
    done.recovered_map_tasks = res.metrics.map_tasks_recovered;
    done.replans = res.metrics.replans;
    done.analyzed_plan = holder->analyzed_plan;
    done.profile = res.profile;
    if (res.profile != nullptr) {
      for (const StageTrace& s : res.profile->stages) {
        done.bytes += s.bytes_out;
        done.spill_bytes += s.spill_bytes;
      }
    }
  } else {
    done.status = "error";
    done.error = OneLine(outcome.status.ToString());
  }
  qlog_.Complete(done);

  if (!outcome.status.ok()) {
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_[conn_id].errors++;
    }
    total_errors_++;
    return WriteAll(fd, "ERR " + done.error + "\n");
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_[conn_id].ok++;
  }
  total_ok_++;

  std::ostringstream out;
  out << "OK " << query_id << ' ' << holder->result.rows.size() << ' '
      << holder->result.schema.num_fields() << ' '
      << holder->result.metrics.virtual_seconds << ' '
      << outcome.queue_delay() << '\n';
  for (const Row& row : holder->result.rows) {
    for (size_t i = 0; i < row.fields.size(); ++i) {
      if (i > 0) out << '\t';
      out << FormatValue(row.fields[i]);
    }
    out << '\n';
  }
  out << "END\n";
  return WriteAll(fd, out.str());
}

bool SharkServer::HandleStats(int fd, uint64_t conn_id) {
  SessionState st;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    st = sessions_[conn_id];
  }
  const std::string session_name = "conn" + std::to_string(conn_id);
  SessionSloSnapshot sess;
  SessionSloSnapshot server;
  jobs_.Inspect([&] {
    ClusterMetrics& m = session_->context().metrics();
    m.SessionSlo(session_name, &sess);
    server = m.ServerSlo();
  });
  std::ostringstream out;
  out << "STAT session.queries " << st.queries << '\n'
      << "STAT session.ok " << st.ok << '\n'
      << "STAT session.errors " << st.errors << '\n'
      << "STAT session.weight " << st.weight << '\n'
      << "STAT session.mem_demand_bytes " << st.mem_demand_bytes << '\n'
      << "STAT session.latency_p50 " << sess.latency_p50 << '\n'
      << "STAT session.latency_p95 " << sess.latency_p95 << '\n'
      << "STAT session.latency_p99 " << sess.latency_p99 << '\n'
      << "STAT session.queued_p50 " << sess.queued_p50 << '\n'
      << "STAT session.queued_p99 " << sess.queued_p99 << '\n'
      << "STAT server.queries " << total_queries_.load() << '\n'
      << "STAT server.ok " << total_ok_.load() << '\n'
      << "STAT server.errors " << total_errors_.load() << '\n'
      << "STAT server.latency_p50 " << server.latency_p50 << '\n'
      << "STAT server.latency_p95 " << server.latency_p95 << '\n'
      << "STAT server.latency_p99 " << server.latency_p99 << '\n'
      << "STAT server.queued_p50 " << server.queued_p50 << '\n'
      << "STAT server.queued_p99 " << server.queued_p99 << '\n'
      << "STAT server.slow_queries " << qlog_.slow_queries() << '\n'
      << "END\n";
  return WriteAll(fd, out.str());
}

void SharkServer::HandleObs(const HttpRequest& req, HttpResponse* resp) {
  if (req.path == "/healthz") {
    resp->body = "ok\n";
    return;
  }
  if (req.path == "/metrics") {
    std::string text;
    jobs_.Inspect([&] {
      ClusterContext& ctx = session_->context();
      text = ctx.metrics().PrometheusText(ctx.now(), ctx.cluster());
    });
    resp->content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp->body = std::move(text);
    return;
  }
  if (req.path == "/queries") {
    size_t n = 32;
    std::string param = req.QueryParam("n");
    if (!param.empty()) {
      long v = std::atol(param.c_str());
      if (v > 0) n = static_cast<size_t>(v);
    }
    resp->content_type = "application/json";
    resp->body = qlog_.RecentJson(n) + "\n";
    return;
  }
  if (req.path.rfind("/queries/", 0) == 0) {
    std::string id = req.path.substr(std::strlen("/queries/"));
    std::string body;
    if (!id.empty() && qlog_.LookupJson(id, &body)) {
      resp->content_type = "application/json";
      resp->body = body + "\n";
    } else {
      resp->status = 404;
      resp->body = "unknown query id\n";
    }
    return;
  }
  if (req.path == "/top") {
    resp->body = RenderTop();
    return;
  }
  resp->status = 404;
  resp->body = "not found (try /healthz /metrics /queries /queries/<id> /top)\n";
}

std::string SharkServer::RenderTop() {
  // Session table rows snapshot first (lock order: sessions_mu_ alone),
  // then one Inspect collects every SLO readout race-free.
  std::vector<std::pair<uint64_t, SessionState>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.assign(sessions_.begin(), sessions_.end());
  }
  std::map<std::string, SessionSloSnapshot> slo;
  SessionSloSnapshot server;
  jobs_.Inspect([&] {
    ClusterMetrics& m = session_->context().metrics();
    server = m.ServerSlo();
    for (const auto& [conn_id, st] : sessions) {
      const std::string name = "conn" + std::to_string(conn_id);
      SessionSloSnapshot snap;
      if (m.SessionSlo(name, &snap)) slo[name] = snap;
    }
  });

  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "shark_server: queries=%llu ok=%llu err=%llu slow=%llu "
                "p50=%.4fs p99=%.4fs (virtual)\n\n",
                static_cast<unsigned long long>(total_queries_.load()),
                static_cast<unsigned long long>(total_ok_.load()),
                static_cast<unsigned long long>(total_errors_.load()),
                static_cast<unsigned long long>(qlog_.slow_queries()),
                server.latency_p50, server.latency_p99);
  out += buf;

  out += "SESSION      LIVE  QUERIES      OK     ERR  WEIGHT   P50(v)   "
         "P99(v)\n";
  for (const auto& [conn_id, st] : sessions) {
    const std::string name = "conn" + std::to_string(conn_id);
    SessionSloSnapshot snap;
    auto it = slo.find(name);
    if (it != slo.end()) snap = it->second;
    std::snprintf(buf, sizeof(buf),
                  "%-12s %-5s %7llu %7llu %7llu %7.2f %8.4f %8.4f\n",
                  name.c_str(), st.live ? "yes" : "no",
                  static_cast<unsigned long long>(st.queries),
                  static_cast<unsigned long long>(st.ok),
                  static_cast<unsigned long long>(st.errors), st.weight,
                  snap.latency_p50, snap.latency_p99);
    out += buf;
  }

  out += "\nID           SESSION      STATUS    VSEC    QDELAY   HOST_MS  "
         "ROWS  SQL\n";
  for (const QueryLogEntry& e : qlog_.Recent(16)) {
    std::string sql = e.sql.size() > 40 ? e.sql.substr(0, 37) + "..." : e.sql;
    std::snprintf(buf, sizeof(buf),
                  "%-12s %-12s %-8s %7.4f %9.4f %9.3f %5llu  %s\n",
                  e.query_id.c_str(), e.session.c_str(), e.status.c_str(),
                  e.virtual_seconds, e.queue_delay, e.host_ms,
                  static_cast<unsigned long long>(e.rows), sql.c_str());
    out += buf;
  }
  return out;
}

}  // namespace shark

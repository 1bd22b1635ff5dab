#ifndef FITS_SERVE_SERVER_HH_
#define FITS_SERVE_SERVER_HH_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hh"
#include "support/thread_pool.hh"

namespace fits::serve {

/**
 * The resident analysis daemon behind `fits serve`: a unix-domain
 * socket accepting length-prefixed JSON requests (`serve::wire`),
 * executed on a shared `support::ThreadPool` over the process-wide
 * blob cache — N clients ranking overlapping firmware share behavior
 * bundles across requests.
 *
 * Flow control: admitted-but-unfinished requests are bounded by
 * `ServerConfig::queueLimit`. A request arriving above the limit is
 * rejected immediately with `{"status":"retry","retry_after_ms":...}`
 * — backpressure is explicit and cheap, never a silent deepening
 * queue. Clients (`serve::Client::submit`) honor the hint and
 * resubmit.
 *
 * Lifecycle: `start()` binds and spawns the acceptor; `beginDrain()`
 * (directly, via a SIGTERM writing to `drainTriggerFd()`, or via a
 * `shutdown` request) stops accepting work; `waitUntilDrained()`
 * blocks until every in-flight request has finished and its response
 * has been written, then tears down connections, flushes metrics, and
 * removes the socket. beginDrain() is async-signal-safe: one atomic
 * store and one pipe write.
 *
 * Integration points:
 *  - per-request `support::Deadline` budgets
 *    (`ServerConfig::requestTimeoutMs`, covering queue wait AND
 *    execution: a request that waited out its budget is answered with
 *    a timeout error without running);
 *  - `fits::obs` counters/gauges/histograms (`serve.*`) and per-op
 *    spans (`serve/<op>`), exported via the `metrics` request or the
 *    usual `FITS_METRICS` dump;
 *  - `fits::chaos` fault sites `serve.accept` / `serve.read` /
 *    `serve.write`, which degrade to dropped connections or clean
 *    per-request errors — never a crash, never a wedged server.
 */
struct ServerConfig
{
    /** Filesystem path of the unix-domain listening socket. */
    std::string socketPath;
    /** Analysis worker threads; 0 = FITS_JOBS / hardware. */
    std::size_t jobs = 0;
    /** Maximum admitted-but-unfinished requests before backpressure
     * rejections. */
    std::size_t queueLimit = 16;
    /** Per-request wall-clock budget in ms (queue wait + execution);
     * 0 = unlimited. Expiry degrades the analysis (partial result)
     * or, when spent entirely in the queue, rejects the request with
     * a typed timeout error. */
    double requestTimeoutMs = 0.0;
    /** Hint carried by backpressure rejections. */
    double retryAfterMs = 25.0;
    /** Non-empty: write an obs registry snapshot here when the drain
     * completes (in addition to any FITS_METRICS exit dump). */
    std::string metricsOut;
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the acceptor. False + `error` on any
     * socket failure (path too long, bind refused, ...). */
    bool start(std::string *error);

    /** Stop accepting connections and admitting requests. Safe from
     * any thread and from a signal handler. Idempotent. */
    void beginDrain();

    /** Block until the drain completes: the acceptor has exited,
     * every admitted request has finished and answered, connections
     * are closed, metrics are flushed, and the socket file is gone.
     * Returns immediately if start() never succeeded. */
    void waitUntilDrained();

    /** beginDrain() + waitUntilDrained(). */
    void stop();

    bool running() const { return running_.load(); }
    bool draining() const { return draining_.load(); }

    /** Admitted-but-unfinished requests right now. */
    std::size_t queueDepth() const;

    /** Requests admitted (not rejected) since start. */
    std::size_t requestsServed() const { return requests_.load(); }

    /** Backpressure rejections since start. */
    std::size_t requestsRejected() const { return rejected_.load(); }

    /** Resolved analysis worker count (after FITS_JOBS / hardware
     * defaulting). Valid once start() has succeeded. */
    std::size_t workerCount() const { return resolvedJobs_; }

    const ServerConfig &config() const { return config_; }

    /**
     * Execute one request synchronously and produce its response.
     * Public so tests (and the one-shot equivalence suite) can drive
     * the exact service path without a socket. Request admission,
     * queueing, and framing are the caller's business.
     */
    wire::Value handleRequest(const wire::Value &request,
                              double waitedMs = 0.0);

  private:
    struct Connection
    {
        int fd = -1;
        std::mutex writeMutex;
        std::atomic<bool> dead{false};
    };

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);

    /** Serialize and send one response; chaos site `serve.write`
     * drops the connection instead. */
    void writeResponse(const std::shared_ptr<Connection> &conn,
                       const wire::Value &response);

    /** Admission control: false (with a ready-to-send rejection in
     * `*rejection`) when draining or the queue is full. */
    bool admit(wire::Value *rejection);

    void finishRequest();

    ServerConfig config_;
    std::size_t resolvedJobs_ = 1;

    int listenFd_ = -1;
    int drainPipe_[2] = {-1, -1};

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> drained_{false};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> errors_{0};

    mutable std::mutex pendingMutex_;
    std::condition_variable pendingCv_;
    std::size_t pending_ = 0;

    std::unique_ptr<support::ThreadPool> pool_;
    std::thread acceptThread_;

    std::mutex connectionsMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> connectionThreads_;
};

} // namespace fits::serve

#endif // FITS_SERVE_SERVER_HH_

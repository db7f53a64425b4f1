package jobs

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"triolet/internal/cluster"
)

// Campaign kernel: payloads are routed by their first byte. Poison-marked
// tasks always fail; sleep-marked tasks cost real wall time (the fairness
// phase's unit of work); everything is transformed deterministically so
// results are comparable bit-for-bit across kills and resumes. The chaos
// campaign that drives it is the service's acceptance gate,
// TestChaosCampaignGate.
const (
	campaignPoisonMark = 0xFF
	campaignSleepMark  = 0xEE
	campaignTaskSleep  = 2 * time.Millisecond
)

var campaignKernelOnce sync.Once

// RegisterCampaignKernel installs the campaign's farm kernel
// ("jobs.campaign"). Idempotent; the campaign and triolet-bench -serve call
// it so the kernel is available to submissions.
func RegisterCampaignKernel() {
	campaignKernelOnce.Do(func() {
		cluster.RegisterFarm("jobs.campaign", func(n *cluster.Node, task []byte) ([]byte, error) {
			if len(task) > 0 && task[0] == campaignPoisonMark {
				return nil, errors.New("campaign poison task")
			}
			if len(task) > 0 && task[0] == campaignSleepMark {
				time.Sleep(campaignTaskSleep)
			}
			return campaignTransform(task), nil
		})
	})
}

// campaignTransform is the kernel's pure transform and the campaign's
// golden reference: verification recomputes it in-process and requires the
// service's checkpointed bytes to match exactly.
func campaignTransform(task []byte) []byte {
	out := make([]byte, len(task)+8)
	acc := uint64(1469598103934665603)
	for i, b := range task {
		out[i] = b ^ 0xC3
		acc = (acc ^ uint64(b)) * 1099511628211
	}
	binary.LittleEndian.PutUint64(out[len(task):], acc)
	return out
}

package lrc

// PushCacheCap is pushCacheCap, for the external tests.
const PushCacheCap = pushCacheCap

// PushOrderLen reports the length of the push cache's eviction order.
func (e *Engine) PushOrderLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pushOrder)
}
